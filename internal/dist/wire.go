package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dcc/internal/graph"
)

// The distributed protocol's wire format. Every radio frame is a sequence
// of packets:
//
//	frame   := v1 | v2
//	v1      := version(1)=1 count(uvarint) packet*
//	v2      := version(1)=2 seq(uvarint) count(uvarint) packet*
//	packet  := kind(1) body
//	HELLO   := owner(uvarint) n(uvarint) neighbor(uvarint)*   // adjacency gossip
//	CAND    := origin(uvarint) priority(8, big endian)        // MIS bid
//	DELETE  := origin(uvarint)                                // deletion announce
//	ACK     := origin(uvarint) seq(uvarint)                   // per-hop frame ack
//	REJOIN  := origin(uvarint)                                // crash-recover announce
//	SUSPECT := origin(uvarint)                                // failure-detector announce
//
// Version 2 (the reliability layer, DESIGN.md §10) adds a per-frame
// sequence number so receivers can deduplicate retransmissions and
// acknowledge exactly the frame they heard; an ACK names the original
// sender (origin) and the sequence number of the frame it acknowledges.
// One encoder (Frame.Encode) and one decoder (DecodeFrame) serve both
// versions.
//
// Node IDs are non-negative and fit in uvarints. The simulator encodes
// every frame it transmits and decodes it at each receiver, so the format
// (and its size accounting) is exercised on every delivery, not just in
// round-trip tests.

// Frame format versions. wireVersion is v1, the bare floods' frame (no
// sequence number); wireVersionSeq is the v2 layout carrying a per-frame
// sequence number for the ACK/retransmit reliability layer.
const (
	wireVersion    = 1
	wireVersionSeq = 2
)

// MsgKind discriminates packet bodies.
type MsgKind byte

// Message kinds of the coverage protocol.
const (
	MsgHello MsgKind = iota + 1
	MsgCandidate
	MsgDelete
	MsgAck     // per-hop acknowledgement of a sequenced frame
	MsgRejoin  // crash-recover announcement soliciting a view resync
	MsgSuspect // ACK-timeout failure-detector announcement
)

// Errors returned by frame decoding.
var (
	ErrBadFrame   = errors.New("dist: malformed frame")
	ErrBadVersion = errors.New("dist: unsupported frame version")
)

// Packet is one protocol message. Fields are used according to Kind.
type Packet struct {
	Kind MsgKind
	// Owner and Neighbors carry a HELLO adjacency record.
	Owner     graph.NodeID
	Neighbors []graph.NodeID
	// Origin identifies the subject of every other kind; for an ACK it
	// names the sender of the acknowledged frame.
	Origin graph.NodeID
	// Priority is the MIS bid of a CANDIDATE.
	Priority uint64
	// Seq is the sequence number of the frame an ACK acknowledges.
	Seq uint64
}

// appendPacket serialises p onto dst.
func appendPacket(dst []byte, p Packet) ([]byte, error) {
	if p.Kind < MsgHello || p.Kind > MsgSuspect {
		return nil, fmt.Errorf("dist: unknown packet kind %d", p.Kind)
	}
	id := p.Origin
	if p.Kind == MsgHello {
		id = p.Owner
	}
	dst, err := appendID(append(dst, byte(p.Kind)), id)
	if err != nil {
		return nil, err
	}
	switch p.Kind {
	case MsgHello:
		dst = binary.AppendUvarint(dst, uint64(len(p.Neighbors)))
		for _, n := range p.Neighbors {
			if dst, err = appendID(dst, n); err != nil {
				return nil, err
			}
		}
	case MsgCandidate:
		dst = binary.BigEndian.AppendUint64(dst, p.Priority)
	case MsgAck:
		dst = binary.AppendUvarint(dst, p.Seq)
	}
	return dst, nil
}

// appendID appends a node ID, which must be non-negative, as a uvarint.
func appendID(dst []byte, id graph.NodeID) ([]byte, error) {
	if id < 0 {
		return nil, fmt.Errorf("dist: negative node id %d", id)
	}
	return binary.AppendUvarint(dst, uint64(id)), nil
}

// Frame is one radio frame: its wire version, the sender's per-frame
// sequence number (v2 only; zero in a decoded v1 frame), and the packet
// batch.
type Frame struct {
	Version byte
	Seq     uint64
	Packets []Packet
}

// Encode serialises the frame in its version: v1 (no sequence number, the
// bare floods) or v2 (the reliability layer). Seq is ignored in v1.
func (f Frame) Encode() ([]byte, error) {
	if f.Version != wireVersion && f.Version != wireVersionSeq {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, f.Version)
	}
	buf := make([]byte, 0, 24+8*len(f.Packets))
	buf = append(buf, f.Version)
	if f.Version == wireVersionSeq {
		buf = binary.AppendUvarint(buf, f.Seq)
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Packets)))
	var err error
	for _, p := range f.Packets {
		if buf, err = appendPacket(buf, p); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeFrame parses a radio frame of either version back into its
// header and packets.
func DecodeFrame(frame []byte) (Frame, error) {
	if len(frame) == 0 {
		return Frame{}, ErrBadFrame
	}
	out := Frame{Version: frame[0]}
	if out.Version != wireVersion && out.Version != wireVersionSeq {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, out.Version)
	}
	rest := frame[1:]
	if out.Version == wireVersionSeq {
		seq, n := binary.Uvarint(rest)
		if n <= 0 {
			return Frame{}, ErrBadFrame
		}
		out.Seq = seq
		rest = rest[n:]
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return Frame{}, ErrBadFrame
	}
	rest = rest[n:]
	if count > uint64(len(frame)) {
		return Frame{}, ErrBadFrame // count cannot exceed the byte length
	}
	packets := make([]Packet, 0, count)
	readID := func() (graph.NodeID, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, ErrBadFrame
		}
		if v > math.MaxInt64 || graph.NodeID(v) < 0 {
			// IDs are non-negative ints; a uvarint above that range can
			// never have been produced by the encoder.
			return 0, fmt.Errorf("%w: node id %d out of range", ErrBadFrame, v)
		}
		rest = rest[n:]
		return graph.NodeID(v), nil
	}
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return Frame{}, ErrBadFrame
		}
		p := Packet{Kind: MsgKind(rest[0])}
		if p.Kind < MsgHello || p.Kind > MsgSuspect {
			return Frame{}, fmt.Errorf("%w: kind %d", ErrBadFrame, p.Kind)
		}
		rest = rest[1:]
		id, err := readID()
		if err != nil {
			return Frame{}, err
		}
		if p.Kind == MsgHello {
			p.Owner = id
		} else {
			p.Origin = id
		}
		switch p.Kind {
		case MsgHello:
			cnt, n := binary.Uvarint(rest)
			if n <= 0 || cnt > uint64(len(frame)) {
				return Frame{}, ErrBadFrame
			}
			rest = rest[n:]
			p.Neighbors = make([]graph.NodeID, 0, cnt)
			for j := uint64(0); j < cnt; j++ {
				id, err := readID()
				if err != nil {
					return Frame{}, err
				}
				p.Neighbors = append(p.Neighbors, id)
			}
		case MsgCandidate:
			if len(rest) < 8 {
				return Frame{}, ErrBadFrame
			}
			p.Priority = binary.BigEndian.Uint64(rest)
			rest = rest[8:]
		case MsgAck:
			seq, n := binary.Uvarint(rest)
			if n <= 0 {
				return Frame{}, ErrBadFrame
			}
			p.Seq = seq
			rest = rest[n:]
		}
		packets = append(packets, p)
	}
	if len(rest) != 0 {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	out.Packets = packets
	return out, nil
}
