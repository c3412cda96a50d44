package dist

import (
	"fmt"
	"sort"

	"dcc/internal/core"
	"dcc/internal/graph"
)

// Reliability selects the delivery guarantee of the protocol's floods
// (discovery gossip and the safety-critical CANDIDATE and DELETE).
type Reliability int

const (
	// ReliabilityNone is the paper's bare fire-and-forget flooding: under
	// message loss two MIS "winners" closer than m hops can delete
	// simultaneously (the documented Theorem 5/6 gap).
	ReliabilityNone Reliability = iota
	// AckFloods adds per-hop ACK/retransmit to those floods: sequenced v2
	// frames, bounded retries with exponential round backoff, and
	// candidate withdrawal when the origin's own first hop cannot be fully
	// acknowledged. MIS independence then holds for any Loss < 1 (up to
	// the retry bound, which the chaos harness pins).
	AckFloods
)

func (r Reliability) String() string {
	switch r {
	case ReliabilityNone:
		return "none"
	case AckFloods:
		return "ack-floods"
	default:
		return fmt.Sprintf("Reliability(%d)", int(r))
	}
}

// CrashEvent schedules one fail-stop crash, optionally followed by a
// recovery (the node rejoins with an empty view and resyncs from its
// neighbours).
type CrashEvent struct {
	// Node is the crash victim.
	Node graph.NodeID
	// At is the 1-based super-round at whose start the node fails.
	At int
	// AfterElection delays the crash within super-round At until after
	// the MIS election, so an elected winner can die before announcing
	// its deletion — the adversarial schedule of the crash-of-a-winner
	// regression.
	AfterElection bool
	// RecoverAt is the super-round at whose start the node rejoins
	// (0 = never). A rejoining node rebuilds its local view from a
	// neighbour-assisted resync (MsgRejoin + record dump).
	RecoverAt int
}

// GilbertElliott parameterises the classic two-state bursty-loss channel:
// each directed link carries an independent Good/Bad Markov chain, stepped
// once per delivery attempt, and drops the frame with the loss probability
// of its current state. When set it replaces the i.i.d. Config.Loss model.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are the per-use state transition
	// probabilities.
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are the per-state drop probabilities in [0,1].
	LossGood, LossBad float64
}

// PartitionEvent cuts the network into two sides for a super-round
// interval: deliveries across the cut are dropped until the partition
// heals.
type PartitionEvent struct {
	// At is the 1-based super-round at whose start the partition begins;
	// Heal the super-round at whose start it heals (0 = never).
	At, Heal int
	// SideA lists the nodes of one side explicitly. When nil, sides are
	// drawn from the plan's SplitMix stream: side(v) =
	// core.HashPriority(planSeed, v, event index) & 1.
	SideA []graph.NodeID
}

// FaultPlan is a structured, seeded fault schedule. Everything in the
// plan is resolved deterministically from the plan itself plus Seed, so a
// faulty run stays reproducible from its Config alone.
type FaultPlan struct {
	// Seed drives seeded partition side assignment (and is folded into
	// nothing else; link-loss draws ride the runtime's SplitMix stream).
	Seed int64
	// Crashes are the fail-stop (and optional recovery) events.
	Crashes []CrashEvent
	// Bursty, when non-nil, replaces the i.i.d. Config.Loss model with
	// per-link Gilbert–Elliott bursty loss.
	Bursty *GilbertElliott
	// Partitions are timed partition/heal events.
	Partitions []PartitionEvent
}

// validate checks a fault plan against the network it will run on.
func (p *FaultPlan) validate(g *graph.Graph, iidLoss float64) error {
	for i, c := range p.Crashes {
		if !g.HasNode(c.Node) {
			return fmt.Errorf("dist: fault plan crash %d names unknown node %d", i, c.Node)
		}
		if c.At < 1 {
			return fmt.Errorf("dist: fault plan crash %d: super-round %d < 1", i, c.At)
		}
		if c.RecoverAt != 0 && c.RecoverAt <= c.At {
			return fmt.Errorf("dist: fault plan crash %d: recovery round %d not after crash round %d",
				i, c.RecoverAt, c.At)
		}
	}
	if ge := p.Bursty; ge != nil {
		if iidLoss > 0 {
			return fmt.Errorf("dist: Loss %v and FaultPlan.Bursty are mutually exclusive loss models", iidLoss)
		}
		for _, pr := range []struct {
			name string
			v    float64
		}{
			{"PGoodToBad", ge.PGoodToBad}, {"PBadToGood", ge.PBadToGood},
		} {
			if !(pr.v >= 0 && pr.v <= 1) {
				return fmt.Errorf("dist: Gilbert–Elliott %s %v outside [0,1]", pr.name, pr.v)
			}
		}
		if !(ge.LossGood >= 0 && ge.LossGood < 1 && ge.LossBad >= 0 && ge.LossBad < 1) {
			return fmt.Errorf("dist: Gilbert–Elliott loss probabilities (%v, %v) outside [0,1)",
				ge.LossGood, ge.LossBad)
		}
	}
	for i, pe := range p.Partitions {
		if pe.At < 1 {
			return fmt.Errorf("dist: fault plan partition %d: super-round %d < 1", i, pe.At)
		}
		if pe.Heal != 0 && pe.Heal <= pe.At {
			return fmt.Errorf("dist: fault plan partition %d: heal round %d not after start round %d",
				i, pe.Heal, pe.At)
		}
		for _, v := range pe.SideA {
			if !g.HasNode(v) {
				return fmt.Errorf("dist: fault plan partition %d names unknown node %d", i, v)
			}
		}
	}
	return nil
}

// linkKey identifies one directed radio link.
type linkKey struct{ from, to graph.NodeID }

// geLink is the per-link Gilbert–Elliott chain state.
type geLink struct{ bad bool }

// partitionState is one partition event with its side assignment
// resolved.
type partitionState struct {
	at, heal int
	sideA    map[graph.NodeID]bool
	active   bool
}

// faultState is the runtime half of a FaultPlan: events indexed by
// super-round, resolved partition sides, and per-link loss chains.
type faultState struct {
	plan       FaultPlan
	crashStart map[int][]CrashEvent // super-round -> start-of-round crashes
	crashPost  map[int][]CrashEvent // super-round -> after-election crashes
	recoverAt  map[int][]graph.NodeID
	partitions []partitionState
	ge         map[linkKey]*geLink
	activeCuts int
}

// newFaultState compiles a validated plan against the deployment graph.
func newFaultState(plan FaultPlan, g *graph.Graph) *faultState {
	f := &faultState{
		plan:       plan,
		crashStart: make(map[int][]CrashEvent),
		crashPost:  make(map[int][]CrashEvent),
		recoverAt:  make(map[int][]graph.NodeID),
	}
	for _, c := range plan.Crashes {
		if c.AfterElection {
			f.crashPost[c.At] = append(f.crashPost[c.At], c)
		} else {
			f.crashStart[c.At] = append(f.crashStart[c.At], c)
		}
		if c.RecoverAt != 0 {
			f.recoverAt[c.RecoverAt] = append(f.recoverAt[c.RecoverAt], c.Node)
		}
	}
	for i, pe := range plan.Partitions {
		ps := partitionState{at: pe.At, heal: pe.Heal, sideA: make(map[graph.NodeID]bool)}
		if pe.SideA != nil {
			for _, v := range pe.SideA {
				ps.sideA[v] = true
			}
		} else {
			for _, v := range g.Nodes() {
				if core.HashPriority(uint64(plan.Seed)^0xa0761d6478bd642f, uint64(v), uint64(i))&1 == 0 {
					ps.sideA[v] = true
				}
			}
		}
		f.partitions = append(f.partitions, ps)
	}
	if plan.Bursty != nil {
		f.ge = make(map[linkKey]*geLink)
	}
	return f
}

// eventsAfter reports whether the plan schedules any event strictly after
// super-round sr: a crash, a recovery, or a partition heal. While events
// are pending the protocol must keep idling through super-rounds even with
// no candidates — a scheduled recovery can both revive candidacy and is
// required for the rejoiner to count as alive in the final result.
func (f *faultState) eventsAfter(sr int) bool {
	for _, c := range f.plan.Crashes {
		if c.At > sr || c.RecoverAt > sr {
			return true
		}
	}
	for _, p := range f.plan.Partitions {
		if p.At > sr || p.Heal > sr {
			return true
		}
	}
	return false
}

// enterSuperRound updates which partitions are active at super-round sr.
func (f *faultState) enterSuperRound(sr int) {
	f.activeCuts = 0
	for i := range f.partitions {
		p := &f.partitions[i]
		p.active = sr >= p.at && (p.heal == 0 || sr < p.heal)
		if p.active {
			f.activeCuts++
		}
	}
}

// linkCut reports whether an active partition severs the (u,v) link.
func (f *faultState) linkCut(u, v graph.NodeID) bool {
	if f.activeCuts == 0 {
		return false
	}
	for i := range f.partitions {
		p := &f.partitions[i]
		if p.active && p.sideA[u] != p.sideA[v] {
			return true
		}
	}
	return false
}

// geDrop advances the directed link's Gilbert–Elliott chain by one use and
// reports whether this delivery is lost. Draw order (one transition draw,
// then one loss draw) is fixed, so the stream stays reproducible.
func (f *faultState) geDrop(from, to graph.NodeID, rng *splitMix) bool {
	l := f.ge[linkKey{from, to}]
	if l == nil {
		l = &geLink{}
		f.ge[linkKey{from, to}] = l
	}
	ge := f.plan.Bursty
	if l.bad {
		if rng.float64() < ge.PBadToGood {
			l.bad = false
		}
	} else {
		if rng.float64() < ge.PGoodToBad {
			l.bad = true
		}
	}
	p := ge.LossGood
	if l.bad {
		p = ge.LossBad
	}
	return p > 0 && rng.float64() < p
}

// sortedCrashEvents returns the round's events in deterministic (node,
// recover) order.
func sortedCrashEvents(evs []CrashEvent) []CrashEvent {
	out := append([]CrashEvent(nil), evs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].RecoverAt < out[j].RecoverAt
	})
	return out
}

// sortedIDs returns a sorted copy of ids.
func sortedIDs(ids []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
