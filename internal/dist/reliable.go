package dist

import (
	"fmt"
	"sort"

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
// redundant retransmission, which the (sender, seq) dedup absorbs.

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

// txState tracks one sender's frame through a reliable exchange.
type txState struct {
	frame []byte
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
	senders := make([]graph.NodeID, 0, len(frames))
	for v, pkts := range frames {
		if len(pkts) > 0 && !r.crashed[v] {
			senders = append(senders, v)
		}
	}
	if len(senders) == 0 {
		return nil
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })

	tx := make(map[graph.NodeID]*txState, len(senders))
	for _, from := range senders {
		seq := r.rel.nextSeq[from]
		r.rel.nextSeq[from]++
		frame, err := EncodeFrameV2(seq, frames[from])
		if err != nil {
			panic(fmt.Sprintf("dist: encode v2 frame: %v", err))
		}
		want := make(map[graph.NodeID]bool)
		for _, n := range r.views[from].liveNeighbors(from) {
			want[n] = true
		}
		tx[from] = &txState{frame: frame, seq: seq, want: want}
	}

	for attempt := 0; attempt < ackAttempts; attempt++ {
		active := make([]graph.NodeID, 0, len(senders))
		for _, from := range senders {
			if (attempt == 0 || len(tx[from].want) > 0) && !r.crashed[from] {
				active = append(active, from)
			}
		}
		if len(active) == 0 {
			break
		}

		// Data round: every active sender (re)broadcasts its frame.
		r.stats.CommRounds++
		acks := make(map[graph.NodeID][]Packet)
		for _, from := range active {
			st := tx[from]
			r.stats.Broadcasts++
			r.stats.BytesSent += len(st.frame)
			if attempt > 0 {
				r.stats.Retransmits++
			}
			for _, to := range r.cur.Neighbors(from) {
				if r.crashed[to] || r.dropDelivery(from, to) {
					continue
				}
				f, err := DecodeFrameAny(st.frame)
				if err != nil {
					panic(fmt.Sprintf("dist: decode v2 frame: %v", err))
				}
				r.stats.Delivered++
				r.stats.BytesDelivered += len(st.frame)
				r.proofOfLife(from, to)
				key := ackKey{to: to, from: from, seq: st.seq}
				if !r.rel.seen[key] {
					r.rel.seen[key] = true
					for _, p := range f.Packets {
						onPacket(from, to, p)
					}
				}
				acks[to] = append(acks[to], Packet{Kind: MsgAck, Origin: from, Seq: st.seq})
			}
		}

		// ACK round: every receiver acknowledges the frames it just
		// heard; ACK frames ride the same lossy radio.
		if len(acks) > 0 {
			ackers := make([]graph.NodeID, 0, len(acks))
			for v := range acks {
				ackers = append(ackers, v)
			}
			sort.Slice(ackers, func(i, j int) bool { return ackers[i] < ackers[j] })
			r.stats.CommRounds++
			for _, a := range ackers {
				seq := r.rel.nextSeq[a]
				r.rel.nextSeq[a]++
				frame, err := EncodeFrameV2(seq, acks[a])
				if err != nil {
					panic(fmt.Sprintf("dist: encode ack frame: %v", err))
				}
				r.stats.Broadcasts++
				r.stats.AckFrames++
				r.stats.BytesSent += len(frame)
				r.stats.AckBytes += len(frame)
				for _, to := range r.cur.Neighbors(a) {
					if r.crashed[to] || r.dropDelivery(a, to) {
						continue
					}
					f, err := DecodeFrameAny(frame)
					if err != nil {
						panic(fmt.Sprintf("dist: decode ack frame: %v", err))
					}
					r.stats.Delivered++
					r.stats.BytesDelivered += len(frame)
					r.proofOfLife(a, to)
					st := tx[to]
					if st == nil {
						continue // overheard ACK for somebody else's frame
					}
					for _, p := range f.Packets {
						if p.Kind == MsgAck && p.Origin == to && p.Seq == st.seq {
							delete(st.want, a)
						}
					}
				}
			}
		}

		incomplete := false
		for _, from := range senders {
			if len(tx[from].want) > 0 && !r.crashed[from] {
				incomplete = true
				break
			}
		}
		if !incomplete {
			break
		}
		if attempt+1 < ackAttempts {
			// Exponential idle backoff before the next retransmission.
			backoff := 1 << attempt
			if backoff > ackBackoffCap {
				backoff = ackBackoffCap
			}
			r.stats.CommRounds += backoff
		}
	}

	var gaveUp []graph.NodeID
	for _, from := range senders {
		if len(tx[from].want) > 0 && !r.crashed[from] {
			gaveUp = append(gaveUp, from)
			// Failure detector: a neighbour that stayed silent through
			// every retry is suspected crashed and leaves the sender's
			// local view until it proves itself alive again. Without this,
			// views 1 hop from a silent crash keep a phantom neighbour
			// forever and later deletability tests turn unsafely
			// permissive.
			silent := make([]graph.NodeID, 0, len(tx[from].want))
			for n := range tx[from].want {
				silent = append(silent, n)
			}
			sort.Slice(silent, func(i, j int) bool { return silent[i] < silent[j] })
			for _, n := range silent {
				if r.views[from].markSuspect(n) {
					r.stats.Suspicions++
					r.pendingSuspects = append(r.pendingSuspects, suspicion{by: from, of: n})
				}
			}
		}
	}
	return gaveUp
}

// flood delivers one hop with the configured reliability: the bare
// broadcast round under ReliabilityNone, the ACK/retransmit exchange
// under AckFloods. It returns the senders that gave up (always nil for
// the unreliable mode, which cannot detect loss).
func (r *runtime) flood(frames map[graph.NodeID][]Packet, onPacket func(from, to graph.NodeID, p Packet)) []graph.NodeID {
	if r.cfg.Reliability == AckFloods {
		return r.reliableRound(frames, onPacket)
	}
	r.broadcastRound(frames, onPacket)
	return nil
}
