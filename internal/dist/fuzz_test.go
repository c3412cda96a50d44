package dist

import (
	"reflect"
	"testing"

	"dcc/internal/graph"
)

// FuzzFrameRoundTrip feeds arbitrary bytes to the wire-format decoder.
// For every input:
//
//  1. DecodeFrame never panics — malformed radio frames are a runtime
//     condition, not a programming error;
//  2. any frame that decodes re-encodes losslessly in its own version:
//     for the decoded frame f, DecodeFrame(f.Encode()) == f. (The byte
//     images may differ — the decoder tolerates non-minimal uvarints the
//     encoder never emits — so the law is stated on decoded frames, not
//     bytes.)
func FuzzFrameRoundTrip(f *testing.F) {
	// Seed corpus: one frame per packet kind in both wire versions, a
	// multi-packet frame, and classic malformed shapes (bad version,
	// truncations, trailing bytes).
	encode := func(version byte, seq uint64, packets ...Packet) []byte {
		frame, err := Frame{Version: version, Seq: seq, Packets: packets}.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	mixed := encode(1, 0,
		Packet{Kind: MsgDelete, Origin: 7},
		Packet{Kind: MsgHello, Owner: 0, Neighbors: nil},
		Packet{Kind: MsgCandidate, Origin: 1, Priority: 42},
	)
	v2Mixed := encode(2, 1<<40,
		Packet{Kind: MsgRejoin, Origin: 11},
		Packet{Kind: MsgCandidate, Origin: 4, Priority: 77},
		Packet{Kind: MsgDelete, Origin: 2},
	)
	f.Add(encode(1, 0, Packet{Kind: MsgHello, Owner: 2, Neighbors: []graph.NodeID{3, 4, 9}}))
	f.Add(encode(1, 0, Packet{Kind: MsgCandidate, Origin: 5, Priority: 0xDEADBEEF01020304}))
	f.Add(mixed)
	f.Add(encode(2, 9, Packet{Kind: MsgAck, Origin: 3, Seq: 8}, Packet{Kind: MsgAck, Origin: 300, Seq: 1 << 30}))
	f.Add(v2Mixed)
	f.Add([]byte{})
	f.Add([]byte{99, 1, 3, 7})                        // unsupported version
	f.Add([]byte{1})                                  // missing count
	f.Add([]byte{1, 1})                               // count without packet
	f.Add([]byte{1, 1, 1, 2, 200})                    // HELLO with truncated neighbor count
	f.Add(append(mixed, 0xee))                        // trailing byte
	f.Add([]byte{1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1}) // CANDIDATE then truncated packet
	f.Add([]byte{2})                                  // v2 missing seq
	f.Add([]byte{2, 0, 1, 4, 9})                      // v2 ACK without seq bytes
	f.Add(append(v2Mixed, 0x01))                      // v2 trailing byte

	f.Fuzz(func(t *testing.T, frame []byte) {
		decoded, err := DecodeFrame(frame) // law 1: must not panic on any input
		if err != nil {
			return
		}

		// Law 2: decode → Encode → decode is the identity on frames.
		reencoded, err := decoded.Encode()
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v\nframe: %+v", err, decoded)
		}
		again, err := DecodeFrame(reencoded)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !reflect.DeepEqual(decoded, again) {
			t.Fatalf("round trip not lossless:\nfirst:  %+v\nsecond: %+v", decoded, again)
		}
	})
}
