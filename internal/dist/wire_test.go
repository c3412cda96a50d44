package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dcc/internal/graph"
)

// versions are the two wire versions: the bare floods' v1 and the
// reliability layer's sequenced v2.
var versions = []byte{wireVersion, wireVersionSeq}

// TestFrameRoundTrip: every packet kind survives Encode → DecodeFrame in
// both versions, and the header decodes to the version and sequence number
// encoded (a v1 frame carries none, so its Seq decodes as 0).
func TestFrameRoundTrip(t *testing.T) {
	packets := []Packet{
		{Kind: MsgHello, Owner: 7, Neighbors: []graph.NodeID{1, 2, 300}},
		{Kind: MsgHello, Owner: 0, Neighbors: []graph.NodeID{}},
		{Kind: MsgCandidate, Origin: 42, Priority: 0xdeadbeefcafef00d},
		{Kind: MsgDelete, Origin: 9001},
		{Kind: MsgAck, Origin: 13, Seq: 77},
		{Kind: MsgRejoin, Origin: 5},
		{Kind: MsgSuspect, Origin: 6},
	}
	for _, version := range versions {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			for _, seq := range []uint64{0, 1, 127, 128, 1 << 40, 1<<64 - 1} {
				frame, err := Frame{Version: version, Seq: seq, Packets: packets}.Encode()
				if err != nil {
					t.Fatal(err)
				}
				got, err := DecodeFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				wantSeq := seq
				if version == wireVersion {
					wantSeq = 0
				}
				if got.Version != version || got.Seq != wantSeq {
					t.Fatalf("seq %d: decoded header version=%d seq=%d", seq, got.Version, got.Seq)
				}
				if !reflect.DeepEqual(got.Packets, packets) {
					t.Fatalf("seq %d: packets mismatch:\ngot:  %+v\nwant: %+v", seq, got.Packets, packets)
				}
			}
		})
	}
}

func TestEmptyFrame(t *testing.T) {
	for _, version := range versions {
		frame, err := Frame{Version: version}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Packets) != 0 {
			t.Fatalf("v%d: decoded %d packets from empty frame", version, len(got.Packets))
		}
	}
}

func TestEncodeRejectsBadPackets(t *testing.T) {
	bad := map[string]Packet{
		"unknown kind":          {Kind: MsgKind(99)},
		"zero kind":             {Kind: 0},
		"negative id":           {Kind: MsgDelete, Origin: -1},
		"negative owner":        {Kind: MsgHello, Owner: -3},
		"negative neighbour":    {Kind: MsgHello, Owner: 1, Neighbors: []graph.NodeID{-2}},
		"negative ack origin":   {Kind: MsgAck, Origin: -1},
		"negative rejoin":       {Kind: MsgRejoin, Origin: -7},
		"negative candidate id": {Kind: MsgCandidate, Origin: -4},
	}
	for _, version := range versions {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			for name, p := range bad {
				if _, err := (Frame{Version: version, Seq: 1, Packets: []Packet{p}}).Encode(); err == nil {
					t.Errorf("%s accepted", name)
				}
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	garbage := map[byte][][]byte{
		wireVersion: {
			{1},          // missing count
			{1, 5},       // count 5, no packets
			{1, 1, 42},   // unknown kind
			{1, 1, 0},    // zero kind
			{1, 1, 2, 7}, // candidate without priority bytes
			{1, 1, 3},    // delete without origin
			{1, 0, 0xff}, // trailing bytes
		},
		wireVersionSeq: {
			{2},             // missing seq
			{2, 5},          // seq 5, missing count
			{2, 0, 1},       // count 1, no packet
			{2, 0, 1, 4, 9}, // ACK without seq bytes
			{2, 0, 1, 5},    // REJOIN without origin
			{2, 0, 0, 0xff}, // trailing byte
		},
	}
	for _, version := range versions {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			for i, frame := range garbage[version] {
				if _, err := DecodeFrame(frame); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("case %d: garbage frame %v gave %v, want ErrBadFrame", i, frame, err)
				}
			}
		})
	}
	for _, frame := range [][]byte{nil, {}} {
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("empty frame gave %v, want ErrBadFrame", err)
		}
	}
	// A version error is distinguishable.
	for _, frame := range [][]byte{{0, 0}, {3, 0, 0}, {99}} {
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("frame %v: want ErrBadVersion, got %v", frame, err)
		}
	}
	if _, err := (Frame{Version: 9}).Encode(); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("unknown version accepted by Encode: %v", err)
	}
}

// TestDecodeTruncatedHello: every proper prefix of a valid frame is
// rejected, in both versions.
func TestDecodeTruncatedHello(t *testing.T) {
	for _, version := range versions {
		full, err := Frame{Version: version, Seq: 300, Packets: []Packet{
			{Kind: MsgHello, Owner: 5, Neighbors: []graph.NodeID{1, 2, 3}},
			{Kind: MsgAck, Origin: 2, Seq: 9000},
		}}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(full); cut++ {
			if _, err := DecodeFrame(full[:cut]); err == nil {
				t.Fatalf("v%d: truncation at %d accepted", version, cut)
			}
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20)
		packets := make([]Packet, 0, n)
		for i := 0; i < n; i++ {
			id := graph.NodeID(r.Intn(1 << 20))
			switch kind := MsgKind(1 + r.Intn(int(MsgSuspect))); kind {
			case MsgHello:
				p := Packet{Kind: kind, Owner: id, Neighbors: []graph.NodeID{}}
				for j := r.Intn(12); j > 0; j-- {
					p.Neighbors = append(p.Neighbors, graph.NodeID(r.Intn(1<<20)))
				}
				packets = append(packets, p)
			case MsgCandidate:
				packets = append(packets, Packet{Kind: kind, Origin: id, Priority: r.Uint64()})
			case MsgAck:
				packets = append(packets, Packet{Kind: kind, Origin: id, Seq: r.Uint64()})
			default:
				packets = append(packets, Packet{Kind: kind, Origin: id})
			}
		}
		want := Frame{Version: versions[r.Intn(2)], Packets: packets}
		if want.Version == wireVersionSeq {
			want.Seq = r.Uint64()
		}
		frame, err := want.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeFrame(frame)
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameEncodePreservesBytes(t *testing.T) {
	// The encoder emits canonical (minimal-uvarint) frames, so for
	// encoder-produced input decode→Encode must reproduce the bytes exactly
	// in both versions.
	packets := []Packet{
		{Kind: MsgHello, Owner: 1, Neighbors: []graph.NodeID{2, 9}},
		{Kind: MsgAck, Origin: 4, Seq: 1 << 21},
	}
	for _, version := range versions {
		frame, err := Frame{Version: version, Seq: 999, Packets: packets}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		f, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		again, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, frame) {
			t.Fatalf("v%d: re-encode changed bytes:\ngot:  %x\nwant: %x", version, again, frame)
		}
	}
}

// TestFrameBytesPinned pins the wire image of both versions: the frames
// the simulator transmits, and so every BytesSent and BytesDelivered
// count, are fixed bytes, not just round-trippable ones.
func TestFrameBytesPinned(t *testing.T) {
	packets := []Packet{
		{Kind: MsgHello, Owner: 300, Neighbors: []graph.NodeID{1, 2}},
		{Kind: MsgCandidate, Origin: 5, Priority: 0x0102030405060708},
		{Kind: MsgAck, Origin: 4, Seq: 129},
		{Kind: MsgSuspect, Origin: 6},
	}
	body := "04" + "01ac02020102" + "02050102030405060708" + "04048101" + "0606"
	for _, tc := range []struct {
		f    Frame
		want string
	}{
		{Frame{Version: wireVersion, Seq: 7, Packets: packets}, "01" + body},
		{Frame{Version: wireVersionSeq, Seq: 300, Packets: packets}, "02ac02" + body},
	} {
		got, err := tc.f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", got) != tc.want {
			t.Fatalf("v%d frame = %x, want %s", tc.f.Version, got, tc.want)
		}
	}
}

func BenchmarkEncodeDecodeFrame(b *testing.B) {
	f := Frame{Version: wireVersion, Packets: []Packet{
		{Kind: MsgHello, Owner: 7, Neighbors: []graph.NodeID{1, 2, 3, 4, 5, 6, 8, 9, 10, 11}},
		{Kind: MsgCandidate, Origin: 42, Priority: 1 << 60},
		{Kind: MsgDelete, Origin: 3},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := f.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}
