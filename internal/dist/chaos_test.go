package dist

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/run_golden.txt from this build")

// runGoldenPath holds one line per run of TestChaosMatrix and
// TestParallelMatchesDistributed: the deletion order, the crashed and
// recovered lists, a hash of the final graph's node and edge lists, and
// every Stats field. It pins refactors of the runtime as invisible, run
// for run. Regenerate (both tests, without -short, with -update-golden)
// only for a deliberate behaviour change, and say so.
var runGoldenPath = filepath.Join("testdata", "run_golden.txt")

// runGolden collects the result lines of one test's runs. When the test
// ends it compares them with the recorded lines, or rewrites the test's
// lines under -update-golden. Lines are keyed by test and cell name, so a
// -short or -run slice compares exactly the cells that ran.
type runGolden struct {
	t     *testing.T
	lines map[string]string
}

func newRunGolden(t *testing.T) *runGolden {
	g := &runGolden{t: t, lines: make(map[string]string)}
	t.Cleanup(g.check)
	return g
}

// add records the pinned fields of one run.
func (g *runGolden) add(cell string, res Result) {
	h := sha256.New()
	for _, v := range res.Final.Nodes() {
		fmt.Fprintf(h, "%d ", v)
	}
	for _, e := range res.Final.Edges() {
		fmt.Fprintf(h, "%d-%d ", e.U, e.V)
	}
	key := g.t.Name() + "/" + cell
	g.lines[key] = fmt.Sprintf("%s deleted=%v crashed=%v recovered=%v final=%d/%d/%x stats=%+v",
		key, res.Deleted, res.Crashed, res.Recovered, res.Final.NumNodes(), res.Final.NumEdges(),
		h.Sum(nil)[:8], res.Stats)
}

func (g *runGolden) check() {
	t := g.t
	recorded := make(map[string]string)
	if data, err := os.ReadFile(runGoldenPath); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			key, _, _ := strings.Cut(line, " ")
			recorded[key] = line
		}
	} else if !*updateGolden {
		t.Fatal(err)
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update-golden records the full matrix; drop -short")
		}
		for key := range recorded {
			if strings.HasPrefix(key, t.Name()+"/") {
				delete(recorded, key)
			}
		}
		for key, line := range g.lines {
			recorded[key] = line
		}
		out := make([]string, 0, len(recorded))
		for _, line := range recorded {
			out = append(out, line)
		}
		sort.Strings(out)
		if err := os.WriteFile(runGoldenPath, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	keys := make([]string, 0, len(g.lines))
	for key := range g.lines {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want, ok := recorded[key]
		switch {
		case !ok:
			t.Errorf("%s: no recorded run in %s", key, runGoldenPath)
		case g.lines[key] != want:
			t.Errorf("%s differs from %s:\n got  %s\n want %s", key, runGoldenPath, g.lines[key], want)
		}
	}
}

// chaosPlans are the seeded fault schedules of the chaos matrix. Every
// plan is reproducible from its literal value: crash times, recovery
// times, partition windows and side seeds are all explicit, and the
// bursty-loss chains ride the run's own SplitMix stream.
func chaosPlans() []struct {
	name   string
	plan   *FaultPlan
	bursty bool // plan carries its own loss model; skip the iid-loss axis
} {
	return []struct {
		name   string
		plan   *FaultPlan
		bursty bool
	}{
		{name: "clean", plan: nil},
		// Crash victims are chosen so that removing them alone keeps the
		// τ-confine criterion satisfiable for every τ in the matrix: a
		// fail-stop crash is an uncertified removal no protocol can undo,
		// so a victim whose bare removal already breaks coverage (node 17
		// does, at τ=3) would make the cell unwinnable by construction.
		// TestChaosMatrix asserts this precondition before each faulty run.
		{name: "crashes", plan: &FaultPlan{
			Seed: 1,
			Crashes: []CrashEvent{
				{Node: 30, At: 1},
				{Node: 45, At: 2, AfterElection: true},
			},
		}},
		{name: "crash-recover", plan: &FaultPlan{
			Seed: 2,
			Crashes: []CrashEvent{
				{Node: 24, At: 1, RecoverAt: 3},
				{Node: 38, At: 2, RecoverAt: 5},
			},
		}},
		{name: "partition-heal", plan: &FaultPlan{
			Seed:       3,
			Partitions: []PartitionEvent{{At: 1, Heal: 3}},
		}},
		{name: "bursty", plan: &FaultPlan{
			Seed:   4,
			Bursty: &GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.35, LossGood: 0.02, LossBad: 0.5},
		}, bursty: true},
		{name: "kitchen-sink", plan: &FaultPlan{
			Seed:       5,
			Crashes:    []CrashEvent{{Node: 25, At: 2, RecoverAt: 4}},
			Partitions: []PartitionEvent{{At: 3, Heal: 5}},
		}},
	}
}

// checkRunIntegrity asserts the structural invariants every chaos run must
// satisfy regardless of reliability mode: a duplicate-free deletion log
// consistent with the final graph, and crashed nodes actually gone.
func checkRunIntegrity(t *testing.T, res Result) {
	t.Helper()
	seen := make(map[graph.NodeID]bool, len(res.Deleted))
	for _, d := range res.Deleted {
		if seen[d] {
			t.Fatalf("deletion log contains %d twice", d)
		}
		seen[d] = true
		if res.Final.HasNode(d) {
			t.Fatalf("deleted node %d still in final graph", d)
		}
	}
	for _, c := range res.Crashed {
		if res.Final.HasNode(c) {
			t.Fatalf("crashed node %d still in final graph", c)
		}
	}
}

// TestChaosMatrix sweeps (τ, loss model, fault plan) × reliability mode.
//
// Under AckFloods every cell must keep the safety invariant: zero
// independence violations (the dccdebug MIS-independence assertion backs
// this up when the matrix runs under -tags dccdebug, as scripts/check.sh
// does) and a survivor graph that passes the global τ-confine verifier.
//
// Under ReliabilityNone the same sweep must reproduce the documented
// Theorem 5/6 gap: at loss ≥ 0.1 at least one cell elects winner pairs
// inside the independence radius — proof that the harness can detect the
// original safety hole, not just that the fix hides it.
func TestChaosMatrix(t *testing.T) {
	net := testNet(t, 90, 8, 8, 1.9)
	taus := []int{3, 4, 5}
	losses := []float64{0, 0.1, 0.2}
	if testing.Short() {
		taus = []int{4}
		losses = []float64{0, 0.2}
	}
	gold := newRunGolden(t)
	noneViolations := 0
	for _, tau := range taus {
		for _, loss := range losses {
			for _, pc := range chaosPlans() {
				if pc.bursty && loss > 0 {
					continue // the plan brings its own loss model
				}
				name := fmt.Sprintf("tau=%d/loss=%v/%s", tau, loss, pc.name)
				t.Run("ack/"+name, func(t *testing.T) {
					// Precondition: the plan's permanent crashes must be
					// absorbable — their bare removal alone (no protocol)
					// keeps the criterion. Otherwise the cell is unwinnable
					// by construction, not by any protocol defect.
					if pc.plan != nil {
						var perm []graph.NodeID
						for _, c := range pc.plan.Crashes {
							if c.RecoverAt == 0 {
								perm = append(perm, c.Node)
							}
						}
						if len(perm) > 0 {
							ok, err := core.VerifyConfine(net.G.DeleteVertices(perm), net.BoundaryCycles, tau)
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								t.Fatalf("bad plan: bare removal of crash victims %v already breaks τ=%d confinement", perm, tau)
							}
						}
					}
					res, err := Run(net, Config{
						Tau:         tau,
						Seed:        1000 + int64(tau),
						Loss:        loss,
						Reliability: AckFloods,
						Faults:      pc.plan,
					})
					if err != nil {
						t.Fatal(err)
					}
					gold.add("ack/"+name, res)
					checkRunIntegrity(t, res)
					if res.Stats.IndependenceViolations != 0 {
						t.Fatalf("AckFloods cell has %d independence violations",
							res.Stats.IndependenceViolations)
					}
					ok, err := core.VerifyConfine(res.Final, net.BoundaryCycles, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatal("AckFloods cell broke the τ-confine criterion")
					}
				})
				t.Run("none/"+name, func(t *testing.T) {
					res, err := Run(net, Config{
						Tau:         tau,
						Seed:        1000 + int64(tau),
						Loss:        loss,
						Reliability: ReliabilityNone,
						Faults:      pc.plan,
					})
					if err != nil {
						t.Fatal(err)
					}
					gold.add("none/"+name, res)
					checkRunIntegrity(t, res)
					if loss >= 0.1 {
						noneViolations += res.Stats.IndependenceViolations
					}
				})
			}
		}
	}
	if noneViolations == 0 {
		t.Fatal("unreliable sweep at loss ≥ 0.1 produced no independence violations; " +
			"the harness cannot reproduce the documented gap")
	}
}

// ringNet places n uniform internal nodes in the side×side square inside a
// boundary ring spaced 0.5 apart, linked at radius rc.
func ringNet(t *testing.T, seed int64, n int, side, rc float64) core.Network {
	t.Helper()
	rect := geom.Square(side)
	ring := geom.RingPoints(rect, 0.5)
	pts := append(ring, geom.UniformPoints(rand.New(rand.NewSource(seed)), n, rect)...)
	cycle := make([]graph.NodeID, len(ring))
	boundary := make(map[graph.NodeID]bool, len(ring))
	for i := range ring {
		cycle[i] = graph.NodeID(i)
		boundary[cycle[i]] = true
	}
	net := core.Network{G: geom.UDG(pts, rc), Boundary: boundary, BoundaryCycles: [][]graph.NodeID{cycle}}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestParallelMatchesDistributed pins the protocol to its central form:
// core.Schedule in Parallel mode elects by the same bids (core.RoundBid),
// so a fault-free run must delete the same nodes in the same order, keep
// the same graph, and count the same rounds and tests. AckFloods must
// match on a lossless channel, and under loss whenever no sender gave up
// (no withdrawal, no suspicion): its floods then delivered everything a
// lossless run delivers, discovery included.
func TestParallelMatchesDistributed(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	modes := []struct {
		name string
		loss float64
		rel  Reliability
	}{
		{"none", 0, ReliabilityNone},
		{"ack", 0, AckFloods},
		{"ack/loss=0.05", 0.05, AckFloods},
		{"ack/loss=0.1", 0.1, AckFloods},
	}
	gold := newRunGolden(t)
	lossy := 0
	for _, seed := range seeds {
		net := ringNet(t, seed, 112, 9, 1.4)
		for _, tau := range []int{3, 4, 5} {
			want, err := core.Schedule(net, core.Options{Tau: tau, Seed: seed, Mode: core.Parallel})
			if err != nil {
				t.Fatal(err)
			}
			for _, md := range modes {
				got, err := Run(net, Config{Tau: tau, Seed: seed, Loss: md.loss, Reliability: md.rel})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed=%d/tau=%d/%s", seed, tau, md.name)
				gold.add(name, got)
				if md.loss > 0 {
					if got.Stats.Withdrawals > 0 || got.Stats.Suspicions > 0 {
						continue
					}
					lossy++
				}
				switch {
				case !reflect.DeepEqual(got.Deleted, want.Deleted):
					t.Errorf("%s: deletion order differs\ndist:     %v\nparallel: %v", name, got.Deleted, want.Deleted)
				case !reflect.DeepEqual(got.Final, want.Final) || !reflect.DeepEqual(got.KeptInternal, want.KeptInternal):
					t.Errorf("%s: final graphs differ", name)
				case got.Stats.Rounds != want.Stats.Rounds || got.Stats.Tests != want.Stats.Tests:
					t.Errorf("%s: dist %d rounds and %d tests, parallel %d and %d",
						name, got.Stats.Rounds, got.Stats.Tests, want.Stats.Rounds, want.Stats.Tests)
				}
			}
		}
	}
	if lossy == 0 {
		t.Fatal("no lossy AckFloods run finished without a withdrawal or suspicion")
	}
}
