package dist

import (
	"dcc/internal/graph"
)

// The reliability layer (Config.Reliability == AckFloods) wraps every
// flood of the protocol — the discovery gossip and the safety-critical
// CANDIDATE and DELETE floods among them — in a per-hop ACK/retransmit
// exchange:
//
//   - every data frame is a sequenced v2 frame; receivers deduplicate by
//     (sender, seq) and acknowledge every copy they hear;
//   - a sender retransmits until every neighbour it believes alive has
//     acknowledged the frame, up to ackAttempts attempts, idling an
//     exponentially growing number of radio rounds between attempts;
//   - a sender that exhausts its attempts gives up (a crashed or
//     partitioned neighbour can never acknowledge); electMIS withdraws a
//     candidate whose own first hop gave up, so a bid that provably did
//     not reach the full 1-hop neighbourhood can never win.
//
// ACK frames themselves are unacknowledged: a lost ACK only costs a
// redundant retransmission, which the (sender, seq) dedup absorbs. Data
// and ACK frames alike go out through transmit, the radio loop the bare
// floods use.

// ackAttempts bounds the transmissions of one reliable exchange. With
// i.i.d. loss p the probability that a data frame misses a neighbour on
// every attempt is p^ackAttempts (≈ 2.6e-6 at p = 0.2), which the chaos
// matrix pins to "the MIS-independence assertion never fires" on its
// seeded runs.
const ackAttempts = 8

// ackBackoffCap caps the exponential idle backoff between attempts.
const ackBackoffCap = 16

// reliableState is the runtime bookkeeping of the reliability layer.
type reliableState struct {
	// nextSeq is each node's next frame sequence number.
	nextSeq map[graph.NodeID]uint64
	// seen marks (receiver, sender, seq) triples already delivered, so
	// retransmissions are not re-delivered to the protocol.
	seen map[ackKey]bool
}

// ackKey identifies one delivered frame at one receiver.
type ackKey struct {
	to, from graph.NodeID
	seq      uint64
}

func newReliableState() *reliableState {
	return &reliableState{
		nextSeq: make(map[graph.NodeID]uint64),
		seen:    make(map[ackKey]bool),
	}
}

// frame stamps packets from v with v's next sequence number.
func (s *reliableState) frame(v graph.NodeID, packets []Packet) Frame {
	seq := s.nextSeq[v]
	s.nextSeq[v]++
	return Frame{Version: wireVersionSeq, Seq: seq, Packets: packets}
}

// txState is one sender's data frame in a reliable exchange.
type txState struct {
	frame []byte // encoded once, so every retransmission repeats it
	seq   uint64
	// want holds the neighbours the sender still needs an ACK from: the
	// nodes its local view believes alive. A crashed neighbour the view
	// has not learned about stays in want forever and burns the retry
	// budget — the node-local knowledge a real radio has.
	want map[graph.NodeID]bool
}

// reliableRound delivers one synchronous exchange with per-hop
// ACK/retransmit (see the package comment above). onPacket fires exactly
// once per (sender, receiver, frame). It returns the senders that gave
// up with at least one neighbour unacknowledged, in sorted order.
func (r *runtime) reliableRound(frames map[graph.NodeID][]Packet, onPacket func(from, to graph.NodeID, p Packet)) []graph.NodeID {
	senders := r.senders(frames)
	if len(senders) == 0 {
		return nil
	}
	tx := make(map[graph.NodeID]*txState, len(senders))
	for _, from := range senders {
		f := r.rel.frame(from, frames[from])
		st := &txState{frame: encode(f), seq: f.Seq, want: make(map[graph.NodeID]bool)}
		for _, n := range r.views[from].liveNeighbors(from) {
			st.want[n] = true
		}
		tx[from] = st
	}

	for attempt := 0; ; attempt++ {
		// Data round: every sender (re)broadcasts its frame until it is
		// fully acknowledged.
		r.stats.CommRounds++
		acks := make(map[graph.NodeID][]Packet)
		for _, from := range senders {
			if attempt > 0 {
				if len(tx[from].want) == 0 {
					continue
				}
				r.stats.Retransmits++
			}
			r.transmit(from, tx[from].frame, func(to graph.NodeID, f Frame) {
				if key := (ackKey{to: to, from: from, seq: f.Seq}); !r.rel.seen[key] {
					r.rel.seen[key] = true
					for _, p := range f.Packets {
						onPacket(from, to, p)
					}
				}
				acks[to] = append(acks[to], Packet{Kind: MsgAck, Origin: from, Seq: f.Seq})
			})
		}

		// ACK round: every receiver acknowledges the frames it just
		// heard; ACK frames ride the same lossy radio.
		if len(acks) > 0 {
			r.stats.CommRounds++
			for _, a := range r.senders(acks) {
				r.stats.AckFrames++
				r.stats.AckBytes += r.transmit(a, encode(r.rel.frame(a, acks[a])), func(to graph.NodeID, f Frame) {
					st := tx[to]
					if st == nil {
						return // overheard ACK for somebody else's frame
					}
					for _, p := range f.Packets {
						if p.Origin == to && p.Seq == st.seq {
							delete(st.want, a)
						}
					}
				})
			}
		}

		incomplete := false
		for _, from := range senders {
			incomplete = incomplete || len(tx[from].want) > 0
		}
		if !incomplete || attempt+1 == ackAttempts {
			break
		}
		// Exponential idle backoff before the next retransmission.
		r.stats.CommRounds += min(1<<attempt, ackBackoffCap)
	}

	var gaveUp []graph.NodeID
	for _, from := range senders {
		if len(tx[from].want) == 0 {
			continue
		}
		gaveUp = append(gaveUp, from)
		// Failure detector: a neighbour that stayed silent through every
		// retry is suspected crashed and leaves the sender's local view
		// until it proves itself alive again. Without this, views 1 hop
		// from a silent crash keep a phantom neighbour forever and later
		// deletability tests turn unsafely permissive.
		for _, n := range sortedKeys(tx[from].want) {
			if r.views[from].markSuspect(n) {
				r.stats.Suspicions++
				r.pendingSuspects = append(r.pendingSuspects, suspicion{by: from, of: n})
			}
		}
	}
	return gaveUp
}
