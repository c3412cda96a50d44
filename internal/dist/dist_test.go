package dist

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// testNet builds a dense perturbed-grid UDG network with the grid perimeter
// as boundary cycle (same construction as the core tests).
func testNet(t *testing.T, seed int64, rows, cols int, radius float64) core.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rect := geom.Rect{MaxX: float64(cols), MaxY: float64(rows)}
	pts := geom.PerturbedGrid(rng, rows, cols, rect, 0.15)
	g := geom.UDG(pts, radius)
	if !g.IsConnected() {
		t.Fatal("test network disconnected")
	}
	var order []graph.NodeID
	for c := 0; c < cols; c++ {
		order = append(order, graph.NodeID(c))
	}
	for r := 1; r < rows; r++ {
		order = append(order, graph.NodeID(r*cols+cols-1))
	}
	for c := cols - 2; c >= 0; c-- {
		order = append(order, graph.NodeID((rows-1)*cols+c))
	}
	for r := rows - 2; r >= 1; r-- {
		order = append(order, graph.NodeID(r*cols))
	}
	b := make(map[graph.NodeID]bool, len(order))
	for _, v := range order {
		b[v] = true
	}
	net := core.Network{G: g, Boundary: b, BoundaryCycles: [][]graph.NodeID{order}}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRunRejectsBadConfig(t *testing.T) {
	net := testNet(t, 60, 5, 5, 1.9)
	if _, err := Run(net, Config{Tau: 2}); err == nil {
		t.Fatal("tau=2 accepted")
	}
	if _, err := Run(net, Config{Tau: 3, Loss: 1.0}); err == nil {
		t.Fatal("loss=1 accepted")
	}
	if _, err := Run(core.Network{}, Config{Tau: 3}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestRunPreservesCriterion(t *testing.T) {
	for _, tau := range []int{3, 4, 5} {
		net := testNet(t, 61, 8, 8, 1.9)
		res, err := Run(net, Config{Tau: tau, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := core.VerifyConfine(res.Final, net.BoundaryCycles, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("τ=%d: distributed run broke the criterion", tau)
		}
	}
}

func TestRunLocallyMaximal(t *testing.T) {
	net := testNet(t, 62, 8, 8, 1.9)
	tau := 4
	res, err := Run(net, Config{Tau: tau, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.KeptInternal {
		if vpt.VertexDeletable(res.Final, v, tau) {
			t.Fatalf("node %d still deletable after the protocol terminated", v)
		}
	}
	if len(res.Deleted) == 0 {
		t.Fatal("dense network yielded no deletions")
	}
}

func TestRunDeterministic(t *testing.T) {
	net := testNet(t, 63, 7, 7, 1.9)
	cfg := Config{Tau: 4, Seed: 5, Loss: 0.05}
	r1, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Deleted, r2.Deleted) {
		t.Fatal("same seed produced different deletion sequences")
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("same seed produced different stats: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestRunMatchesCentralizedQuality(t *testing.T) {
	// The distributed result must be comparable in size to the centralized
	// sequential oracle (both are maximal deletions; sizes differ only by
	// deletion-order effects).
	net := testNet(t, 64, 8, 8, 1.9)
	tau := 4
	distRes, err := Run(net, Config{Tau: tau, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	coreRes, err := core.Schedule(net, core.Options{Tau: tau, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	nd, nc := len(distRes.KeptInternal), len(coreRes.KeptInternal)
	if nd == 0 || nc == 0 {
		t.Fatalf("degenerate results: dist=%d core=%d", nd, nc)
	}
	ratio := float64(nd) / float64(nc)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("distributed kept %d vs centralized %d — beyond order effects", nd, nc)
	}
}

func TestRunCommunicationAccounting(t *testing.T) {
	net := testNet(t, 65, 6, 6, 1.9)
	res, err := Run(net, Config{Tau: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.CommRounds < vpt.NeighborhoodRadius(4) {
		t.Fatalf("CommRounds %d below discovery depth", s.CommRounds)
	}
	if s.Broadcasts == 0 || s.Delivered == 0 {
		t.Fatalf("no traffic recorded: %+v", s)
	}
	if s.Delivered < s.Broadcasts {
		t.Fatalf("delivered %d < broadcasts %d in a dense network", s.Delivered, s.Broadcasts)
	}
	if s.Tests == 0 || s.Rounds == 0 {
		t.Fatalf("no work recorded: %+v", s)
	}
}

func TestRunWithMessageLossTerminates(t *testing.T) {
	net := testNet(t, 66, 7, 7, 1.9)
	res, err := Run(net, Config{Tau: 4, Seed: 43, Loss: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Liveness: terminates and still deletes something in a dense network.
	if len(res.Deleted) == 0 {
		t.Fatal("no deletions despite dense redundancy under 20% loss")
	}
	// Lossy discovery can only make nodes more conservative or elect
	// near-simultaneous winners; the kept set must remain a superset of
	// the boundary.
	for v := range net.Boundary {
		if !res.Final.HasNode(v) {
			t.Fatalf("boundary node %d lost", v)
		}
	}
}

func TestRunWithCrashesTerminates(t *testing.T) {
	net := testNet(t, 67, 7, 7, 1.9)
	crash := []graph.NodeID{16, 17, 24}
	plan := &FaultPlan{}
	for _, v := range crash {
		plan.Crashes = append(plan.Crashes, CrashEvent{Node: v, At: 1})
	}
	res, err := Run(net, Config{Tau: 4, Seed: 47, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != len(crash) {
		t.Fatalf("crashed = %v, want %v", res.Crashed, crash)
	}
	for _, v := range crash {
		if res.Final.HasNode(v) {
			t.Fatalf("crashed node %d still in final graph", v)
		}
	}
}

func TestRunRejectsUnknownCrashNode(t *testing.T) {
	// Regression: unknown crash node IDs used to be silently ignored — the
	// crash simply never happened and the run looked healthy.
	net := testNet(t, 60, 5, 5, 1.9)
	_, err := Run(net, Config{Tau: 3, Faults: &FaultPlan{Crashes: []CrashEvent{{Node: 555, At: 1}}}})
	if err == nil || !strings.Contains(err.Error(), "555") {
		t.Fatalf("fault plan with unknown node accepted, or error does not name it: %v", err)
	}
}

func TestRunRejectsBadFaultPlan(t *testing.T) {
	net := testNet(t, 60, 5, 5, 1.9)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"crash round zero", Config{Tau: 3, Faults: &FaultPlan{Crashes: []CrashEvent{{Node: 7, At: 0}}}}},
		{"recovery before crash", Config{Tau: 3, Faults: &FaultPlan{
			Crashes: []CrashEvent{{Node: 7, At: 3, RecoverAt: 2}}}}},
		{"iid loss and bursty together", Config{Tau: 3, Loss: 0.1, Faults: &FaultPlan{
			Bursty: &GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.5, LossBad: 0.5}}}},
		{"bursty loss ≥ 1", Config{Tau: 3, Faults: &FaultPlan{
			Bursty: &GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.5, LossBad: 1.0}}}},
		{"bursty transition > 1", Config{Tau: 3, Faults: &FaultPlan{
			Bursty: &GilbertElliott{PGoodToBad: 1.5, PBadToGood: 0.5}}}},
		{"partition heals before it starts", Config{Tau: 3, Faults: &FaultPlan{
			Partitions: []PartitionEvent{{At: 4, Heal: 2}}}}},
		{"partition with unknown node", Config{Tau: 3, Faults: &FaultPlan{
			Partitions: []PartitionEvent{{At: 1, SideA: []graph.NodeID{4242}}}}}},
		{"unknown reliability mode", Config{Tau: 3, Reliability: Reliability(42)}},
	}
	for _, tc := range cases {
		if _, err := Run(net, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLiveNodesDoesNotAliasNodes(t *testing.T) {
	// Regression guard for the satellite audit: liveNodes filters in place
	// over r.cur.Nodes(), which is only sound because Graph.Nodes returns a
	// fresh copy on every call. A caller's earlier Nodes() slice must be
	// untouched by a subsequent liveNodes call that drops crashed entries.
	net := testNet(t, 69, 5, 5, 1.9)
	r := newRuntime(net, Config{Tau: 3, Seed: 1})
	before := r.cur.Nodes()
	snapshot := append([]graph.NodeID(nil), before...)
	r.crashed[before[0]] = true
	r.crashed[before[3]] = true
	live := r.liveNodes()
	if len(live) != len(snapshot)-2 {
		t.Fatalf("liveNodes kept %d of %d with 2 crashed", len(live), len(snapshot))
	}
	if !reflect.DeepEqual(before, snapshot) {
		t.Fatalf("liveNodes mutated an earlier Nodes() result:\nbefore: %v\nafter:  %v", snapshot, before)
	}
}

func TestAckFloodsLosslessMatchesBaseline(t *testing.T) {
	// With a perfect channel the reliability layer must change bookkeeping
	// (sequencing, ACK traffic) but not one protocol decision: the deletion
	// sequence is identical to the fire-and-forget baseline.
	net := testNet(t, 70, 7, 7, 1.9)
	base, err := Run(net, Config{Tau: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	acked, err := Run(net, Config{Tau: 4, Seed: 11, Reliability: AckFloods})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Deleted, acked.Deleted) {
		t.Fatalf("AckFloods changed lossless deletions:\nbase: %v\nack:  %v", base.Deleted, acked.Deleted)
	}
	if acked.Stats.AckFrames == 0 || acked.Stats.AckBytes == 0 {
		t.Fatalf("no ACK traffic recorded: %+v", acked.Stats)
	}
	if acked.Stats.Retransmits != 0 || acked.Stats.Withdrawals != 0 {
		t.Fatalf("lossless run retransmitted or withdrew: %+v", acked.Stats)
	}
	if base.Stats.AckFrames != 0 || base.Stats.AckBytes != 0 {
		t.Fatalf("baseline recorded ACK traffic: %+v", base.Stats)
	}
}

func TestAckFloodsUnderLossKeepsIndependence(t *testing.T) {
	// The tentpole property: with ACK/retransmit floods, heavy i.i.d. loss
	// must not produce winner pairs inside the independence radius, and the
	// survivor graph must still satisfy the global criterion.
	net := testNet(t, 71, 8, 8, 1.9)
	for _, loss := range []float64{0.1, 0.2} {
		res, err := Run(net, Config{Tau: 4, Seed: 13, Loss: loss, Reliability: AckFloods})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.IndependenceViolations != 0 {
			t.Fatalf("loss %v: %d independence violations under AckFloods",
				loss, res.Stats.IndependenceViolations)
		}
		if res.Stats.Retransmits == 0 {
			t.Fatalf("loss %v: no retransmissions recorded", loss)
		}
		ok, err := core.VerifyConfine(res.Final, net.BoundaryCycles, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("loss %v: AckFloods run broke the criterion", loss)
		}
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	net := testNet(t, 72, 7, 7, 1.9)
	cfg := Config{
		Tau:         4,
		Seed:        19,
		Reliability: AckFloods,
		Faults: &FaultPlan{
			Seed:       5,
			Crashes:    []CrashEvent{{Node: 17, At: 1, RecoverAt: 3}, {Node: 24, At: 2}},
			Bursty:     &GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.4, LossGood: 0.01, LossBad: 0.5},
			Partitions: []PartitionEvent{{At: 2, Heal: 4}},
		},
		MaxSuperRounds: 10,
	}
	r1, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Deleted, r2.Deleted) || !reflect.DeepEqual(r1.Recovered, r2.Recovered) {
		t.Fatal("same fault plan produced different runs")
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("same fault plan produced different stats:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
}

func TestCrashRecoverRejoins(t *testing.T) {
	net := testNet(t, 73, 7, 7, 1.9)
	victim := graph.NodeID(24) // interior node
	res, err := Run(net, Config{
		Tau:  4,
		Seed: 29,
		Faults: &FaultPlan{
			Crashes: []CrashEvent{{Node: victim, At: 1, RecoverAt: 3}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recovered) != 1 || res.Recovered[0] != victim {
		t.Fatalf("recovered = %v, want [%d]", res.Recovered, victim)
	}
	if len(res.Crashed) != 0 {
		t.Fatalf("recovered node still listed as crashed: %v", res.Crashed)
	}
	// The rejoined node is back in the final graph unless the protocol
	// legitimately deleted it after its recovery.
	deleted := false
	for _, d := range res.Deleted {
		if d == victim {
			deleted = true
		}
	}
	if !deleted && !res.Final.HasNode(victim) {
		t.Fatalf("recovered node %d missing from final graph without a deletion", victim)
	}
	ok, err := core.VerifyConfine(res.Final, net.BoundaryCycles, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("crash-recover run broke the criterion")
	}
}

func TestCrashOfWinnerRegression(t *testing.T) {
	// A node elected by the MIS that crashes in the same super-round —
	// after the election, before its DELETE announcement — must not corrupt
	// the deletion log or leave the survivor graph invalid.
	net := testNet(t, 74, 7, 7, 1.9)
	tau := 4
	base, err := Run(net, Config{Tau: tau, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Deleted) == 0 {
		t.Fatal("baseline deleted nothing; test needs a winner to kill")
	}
	winner := base.Deleted[0] // a first-super-round winner
	for _, mode := range []Reliability{ReliabilityNone, AckFloods} {
		res, err := Run(net, Config{
			Tau:         tau,
			Seed:        37,
			Reliability: mode,
			Faults: &FaultPlan{
				Crashes: []CrashEvent{{Node: winner, At: 1, AfterElection: true}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Deleted {
			if d == winner {
				t.Fatalf("%v: crashed winner %d appears in deletion log at %d", mode, winner, i)
			}
		}
		if len(res.Crashed) != 1 || res.Crashed[0] != winner {
			t.Fatalf("%v: crashed = %v, want [%d]", mode, res.Crashed, winner)
		}
		if res.Final.HasNode(winner) {
			t.Fatalf("%v: crashed winner %d survives in the final graph", mode, winner)
		}
		seen := make(map[graph.NodeID]bool, len(res.Deleted))
		for _, d := range res.Deleted {
			if seen[d] {
				t.Fatalf("%v: deletion log contains %d twice", mode, d)
			}
			seen[d] = true
			if res.Final.HasNode(d) {
				t.Fatalf("%v: deleted node %d still in final graph", mode, d)
			}
		}
		if mode != AckFloods {
			// Without the ACK-timeout failure detector, views near a silent
			// crash keep a phantom neighbour and later deletability tests
			// can turn unsafely permissive — the documented gap. Only the
			// reliable mode promises final-graph validity here.
			continue
		}
		if res.Stats.Suspicions == 0 {
			t.Fatal("AckFloods: crash produced no failure-detector suspicions")
		}
		ok, err := core.VerifyConfine(res.Final, net.BoundaryCycles, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("AckFloods: crash-of-a-winner run broke the criterion")
		}
	}
}

func TestAckFloodsWithdrawsOnCrashedNeighbor(t *testing.T) {
	// Withdrawal is the backstop for the one window the heartbeat detector
	// cannot cover: a neighbour that crashes after the round's heartbeat
	// but before the CANDIDATE flood. (A full Run never shows this —
	// heartbeat give-ups suspect the victim before candidacy, and the
	// candidate quarantines instead — so this test drives the runtime
	// directly and crashes the neighbour inside the window.)
	net := testNet(t, 75, 6, 6, 1.9)
	r := newRuntime(net, Config{Tau: 4, Seed: 41, Reliability: AckFloods})
	r.discover()
	cands := r.evaluateCandidates()
	if len(cands) == 0 {
		t.Fatal("no candidates after discovery")
	}
	// Crash a neighbour of the first candidate; no heartbeat runs between
	// here and the election, so the candidate still believes it alive.
	c := cands[0]
	victim := net.G.Neighbors(c)[0]
	r.crashed[victim] = true
	winners, _ := r.electMIS(cands, 1)
	if r.stats.Withdrawals == 0 {
		t.Fatalf("no withdrawals despite crashed-but-believed-alive neighbour: %+v", r.stats)
	}
	for _, w := range winners {
		if w == c {
			t.Fatalf("candidate %d won despite its hop-0 flood giving up on crashed neighbour %d", c, victim)
		}
	}
	// The give-up doubles as failure detection: the victim is now suspected
	// and queued for the next suspicion flood.
	if r.stats.Suspicions == 0 {
		t.Fatalf("give-up raised no suspicion: %+v", r.stats)
	}
	found := false
	for _, s := range r.pendingSuspects {
		if s.of == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim %d not in pending suspicion queue %v", victim, r.pendingSuspects)
	}
}

func TestPartitionSeveredAndHealed(t *testing.T) {
	net := testNet(t, 76, 7, 7, 1.9)
	cfg := Config{
		Tau:         4,
		Seed:        43,
		Reliability: AckFloods,
		Faults: &FaultPlan{
			Seed:       9,
			Partitions: []PartitionEvent{{At: 1, Heal: 4}},
		},
		MaxSuperRounds: 12,
	}
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IndependenceViolations != 0 {
		t.Fatalf("partitioned AckFloods run violated independence: %+v", res.Stats)
	}
	ok, err := core.VerifyConfine(res.Final, net.BoundaryCycles, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("partition/heal run broke the criterion")
	}
}

func TestGilbertElliottBurstyLoss(t *testing.T) {
	net := testNet(t, 77, 7, 7, 1.9)
	cfg := Config{
		Tau:         4,
		Seed:        47,
		Reliability: AckFloods,
		Faults: &FaultPlan{
			Bursty: &GilbertElliott{PGoodToBad: 0.15, PBadToGood: 0.3, LossGood: 0.02, LossBad: 0.6},
		},
	}
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retransmits == 0 {
		t.Fatalf("bursty channel caused no retransmissions: %+v", res.Stats)
	}
	if res.Stats.IndependenceViolations != 0 {
		t.Fatalf("bursty AckFloods run violated independence: %+v", res.Stats)
	}
	ok, err := core.VerifyConfine(res.Final, net.BoundaryCycles, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("bursty-loss run broke the criterion")
	}
}

func TestViewNeighborhoodGraphMatchesTruth(t *testing.T) {
	// After loss-free discovery, every node's local Γ^k must equal the
	// ground-truth induced k-hop neighbourhood.
	net := testNet(t, 68, 6, 6, 1.9)
	k := vpt.NeighborhoodRadius(5)
	r := newRuntime(net, Config{Tau: 5, Seed: 3})
	r.discover()
	for _, v := range net.G.Nodes() {
		local := r.views[v].neighborhoodGraph(k)
		truth := net.G.InducedSubgraph(net.G.KHopNeighbors(v, k))
		if local.NumNodes() != truth.NumNodes() || local.NumEdges() != truth.NumEdges() {
			t.Fatalf("node %d: local view (n=%d,m=%d) != truth (n=%d,m=%d)",
				v, local.NumNodes(), local.NumEdges(), truth.NumNodes(), truth.NumEdges())
		}
		for _, e := range truth.Edges() {
			if !local.HasEdge(e.U, e.V) {
				t.Fatalf("node %d: edge %v missing from local view", v, e)
			}
		}
	}
}

func TestSplitMixDeterminism(t *testing.T) {
	a, b := newSplitMix(7), newSplitMix(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix not deterministic")
		}
	}
	f := newSplitMix(9)
	for i := 0; i < 1000; i++ {
		x := f.float64()
		if x < 0 || x >= 1 {
			t.Fatalf("float64 out of range: %v", x)
		}
	}
}

func TestHashPriorityVaries(t *testing.T) {
	seen := make(map[uint64]bool)
	for node := uint64(0); node < 50; node++ {
		for round := uint64(1); round < 5; round++ {
			p := hashPriority(1, node, round)
			if seen[p] {
				t.Fatalf("priority collision at node %d round %d", node, round)
			}
			seen[p] = true
		}
	}
	if hashPriority(1, 3, 1) == hashPriority(2, 3, 1) {
		t.Fatal("seed does not influence priority")
	}
}

func BenchmarkDistRun(b *testing.B) {
	rng := rand.New(rand.NewSource(70))
	rect := geom.Rect{MaxX: 8, MaxY: 8}
	pts := geom.PerturbedGrid(rng, 8, 8, rect, 0.15)
	g := geom.UDG(pts, 1.9)
	var order []graph.NodeID
	for c := 0; c < 8; c++ {
		order = append(order, graph.NodeID(c))
	}
	for r := 1; r < 8; r++ {
		order = append(order, graph.NodeID(r*8+7))
	}
	for c := 6; c >= 0; c-- {
		order = append(order, graph.NodeID(7*8+c))
	}
	for r := 6; r >= 1; r-- {
		order = append(order, graph.NodeID(r*8))
	}
	bd := make(map[graph.NodeID]bool)
	for _, v := range order {
		bd[v] = true
	}
	net := core.Network{G: g, Boundary: bd, BoundaryCycles: [][]graph.NodeID{order}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(net, Config{Tau: 4, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
