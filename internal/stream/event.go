// Package stream is the event-sourced streaming layer over the incremental
// coverage engine: it ingests typed topology events (node join/leave/crash,
// edge up/down, mobility ticks), maintains the active coverage set by
// re-electing with the canonical engine, replaying the last election
// except where the events' effects reach (core.Replay) under a
// neighborhood-fingerprint verdict memo, and makes the whole state machine
// crash-safe through a checksummed write-ahead log with periodic snapshots
// (DESIGN.md §13).
//
// The package's convergence contract: after any admitted event prefix —
// reached by stepped or ingested events, or by snapshot+WAL recovery from
// a kill at any byte — the engine's cover equals the batch canonical
// schedule of the materialized topology, byte for byte.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dcc/internal/graph"
)

// Kind enumerates the topology event types. The zero Kind is invalid so a
// zero Event can never be mistaken for a real one.
type Kind uint8

const (
	// KindJoin adds a node at (X, Y), or revives a previously departed
	// node. In geometric mode (Config.Radius > 0) its edges are derived
	// from the unit-disk rule; otherwise it joins isolated and gains edges
	// through KindEdgeUp events.
	KindJoin Kind = iota + 1
	// KindLeave removes a live node (planned departure).
	KindLeave
	// KindCrash removes a live node (failure). Topologically identical to
	// KindLeave; kept distinct so traces record intent and stats separate
	// churn from failure.
	KindCrash
	// KindEdgeUp adds an edge between two live nodes (explicit-topology
	// mode only).
	KindEdgeUp
	// KindEdgeDown removes an existing edge (explicit-topology mode only).
	KindEdgeDown
	// KindMove is a mobility tick: the node's position becomes (X, Y). In
	// geometric mode the node's incident edges are re-derived.
	KindMove
)

func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindCrash:
		return "crash"
	case KindEdgeUp:
		return "edge-up"
	case KindEdgeDown:
		return "edge-down"
	case KindMove:
		return "move"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// positional reports whether the kind carries coordinates.
func (k Kind) positional() bool { return k == KindJoin || k == KindMove }

// pairwise reports whether the kind names a second node.
func (k Kind) pairwise() bool { return k == KindEdgeUp || k == KindEdgeDown }

// Event is one typed topology change. Seq is the producer-assigned sequence
// number (strictly positive, strictly increasing along the stream; gaps are
// legal, regressions are not). Peer is set only for edge kinds; X, Y only
// for positional kinds.
type Event struct {
	Seq  uint64
	Kind Kind
	Node graph.NodeID
	Peer graph.NodeID
	X, Y float64
}

func (ev Event) String() string {
	switch {
	case ev.Kind.pairwise():
		return fmt.Sprintf("#%d %s %d-%d", ev.Seq, ev.Kind, ev.Node, ev.Peer)
	case ev.Kind.positional():
		return fmt.Sprintf("#%d %s %d (%.3f,%.3f)", ev.Seq, ev.Kind, ev.Node, ev.X, ev.Y)
	default:
		return fmt.Sprintf("#%d %s %d", ev.Seq, ev.Kind, ev.Node)
	}
}

// Admission and recovery error taxonomy. All are matched with errors.Is;
// the engine never panics on hostile input.
var (
	// ErrMalformedEvent wraps shape violations: unknown kind, damaged
	// encoding, non-finite coordinates, fields set that the kind does not
	// carry.
	ErrMalformedEvent = errors.New("stream: malformed event")
	// ErrDuplicateEvent marks redelivery of the most recently admitted
	// sequence number. Duplicates are dropped silently (counted, not
	// quarantined): at-least-once transports make them routine.
	ErrDuplicateEvent = errors.New("stream: duplicate event")
	// ErrStaleEvent marks a sequence number behind the admission
	// watermark — a reordered or replayed straggler. Quarantined.
	ErrStaleEvent = errors.New("stream: stale event")
	// ErrInvalidEvent wraps semantic violations against the current
	// topology: joining a live node, moving a dead one, dropping an absent
	// edge, or edge events in geometric mode.
	ErrInvalidEvent = errors.New("stream: event invalid on current topology")
	// ErrBoundaryImmutable rejects events that would mutate the boundary
	// structure the criterion's cycle basis stands on: any node event on a
	// boundary node, or an edge-down on a boundary-cycle edge.
	ErrBoundaryImmutable = errors.New("stream: boundary structure is immutable")
	// ErrCorruptSnapshot wraps snapshot decoding failures, including a
	// stored state fingerprint that does not match the decoded state.
	ErrCorruptSnapshot = errors.New("stream: corrupt snapshot")
	// ErrCorruptWAL marks a structurally valid WAL whose leading record is
	// not a recognizable header — the log belongs to something else.
	ErrCorruptWAL = errors.New("stream: corrupt WAL")
	// ErrConfigMismatch rejects recovery artifacts produced under a
	// different (tau, seed, radius) or boundary structure than the
	// recovering engine's.
	ErrConfigMismatch = errors.New("stream: recovery config mismatch")
)

// maxStreamNodeID bounds node ids on the wire so a hostile varint cannot
// smuggle an implausible id into index arithmetic.
const maxStreamNodeID = 1<<31 - 1

// Validate checks the static shape of an event — everything that can be
// judged without consulting the topology. Fields a kind does not carry must
// be zero, which keeps the encoding canonical: every valid event has
// exactly one byte representation.
func (ev Event) Validate() error {
	if ev.Seq == 0 {
		return fmt.Errorf("%w: sequence number must be positive", ErrMalformedEvent)
	}
	switch ev.Kind {
	case KindJoin, KindLeave, KindCrash, KindEdgeUp, KindEdgeDown, KindMove:
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrMalformedEvent, uint8(ev.Kind))
	}
	if ev.Node < 0 || ev.Node > maxStreamNodeID {
		return fmt.Errorf("%w: node id %d out of range", ErrMalformedEvent, ev.Node)
	}
	if ev.Kind.pairwise() {
		if ev.Peer < 0 || ev.Peer > maxStreamNodeID {
			return fmt.Errorf("%w: peer id %d out of range", ErrMalformedEvent, ev.Peer)
		}
		if ev.Peer == ev.Node {
			return fmt.Errorf("%w: self-loop %d-%d", ErrMalformedEvent, ev.Node, ev.Peer)
		}
	} else if ev.Peer != 0 {
		return fmt.Errorf("%w: %s carries no peer, got %d", ErrMalformedEvent, ev.Kind, ev.Peer)
	}
	if ev.Kind.positional() {
		if !finite(ev.X) || !finite(ev.Y) {
			return fmt.Errorf("%w: non-finite coordinates (%v,%v)", ErrMalformedEvent, ev.X, ev.Y)
		}
	} else if ev.X != 0 || ev.Y != 0 {
		return fmt.Errorf("%w: %s carries no coordinates", ErrMalformedEvent, ev.Kind)
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// maxEventRecordLen bounds one encoded event on the wire: kind byte, three
// maximal uvarints and two coordinates fit in well under 64 bytes.
const maxEventRecordLen = 64

// appendTo appends the canonical binary encoding of the event: kind byte,
// uvarint seq, uvarint node, then uvarint peer (edge kinds) or the two
// little-endian IEEE-754 coordinates (positional kinds).
func (ev Event) appendTo(dst []byte) []byte {
	dst = append(dst, byte(ev.Kind))
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = binary.AppendUvarint(dst, uint64(ev.Node))
	switch {
	case ev.Kind.pairwise():
		dst = binary.AppendUvarint(dst, uint64(ev.Peer))
	case ev.Kind.positional():
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Y))
	}
	return dst
}

// decodeEvent is the strict inverse of appendTo: any spare byte, truncated
// field, or shape violation is ErrMalformedEvent. Strictness is what makes
// WAL replay deterministic — a record either decodes to exactly one valid
// event or is rejected; there is no lenient middle.
func decodeEvent(p []byte) (Event, error) {
	var ev Event
	if len(p) == 0 {
		return ev, fmt.Errorf("%w: empty record", ErrMalformedEvent)
	}
	ev.Kind = Kind(p[0])
	p = p[1:]
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return ev, fmt.Errorf("%w: damaged sequence number", ErrMalformedEvent)
	}
	ev.Seq = seq
	p = p[n:]
	node, n := binary.Uvarint(p)
	if n <= 0 || node > maxStreamNodeID {
		return ev, fmt.Errorf("%w: damaged node id", ErrMalformedEvent)
	}
	ev.Node = graph.NodeID(node)
	p = p[n:]
	switch {
	case ev.Kind.pairwise():
		peer, n := binary.Uvarint(p)
		if n <= 0 || peer > maxStreamNodeID {
			return ev, fmt.Errorf("%w: damaged peer id", ErrMalformedEvent)
		}
		ev.Peer = graph.NodeID(peer)
		p = p[n:]
	case ev.Kind.positional():
		if len(p) < 16 {
			return ev, fmt.Errorf("%w: truncated coordinates", ErrMalformedEvent)
		}
		ev.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
		ev.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		p = p[16:]
	}
	if len(p) != 0 {
		return ev, fmt.Errorf("%w: %d trailing bytes", ErrMalformedEvent, len(p))
	}
	if err := ev.Validate(); err != nil {
		return ev, err
	}
	return ev, nil
}
