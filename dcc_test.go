package dcc

import (
	"math"
	"reflect"
	"testing"
)

func TestDeployDefaults(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Points) <= 300 {
		t.Fatal("boundary ring missing")
	}
	// Average degree near the default 25.
	avg := 2 * float64(dep.G.NumEdges()) / float64(dep.G.NumNodes())
	if avg < 15 || avg > 40 {
		t.Fatalf("average degree %.1f far from configured 25", avg)
	}
	if math.Abs(dep.Gamma()-math.Sqrt(3)) > 1e-9 {
		t.Fatalf("gamma = %v, want √3", dep.Gamma())
	}
	if err := dep.Network().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeployRejectsBadOptions(t *testing.T) {
	if _, err := Deploy(DeployOptions{}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := Deploy(DeployOptions{Nodes: 10, Model: LinkModel(99)}); err == nil {
		t.Fatal("unknown link model accepted")
	}
	// Obstacles covering the entire target leave nowhere to deploy.
	if _, err := Deploy(DeployOptions{
		Nodes:     10,
		Target:    Rect{MaxX: 2, MaxY: 2},
		Rc:        1,
		Obstacles: []Circle{{Center: Point{X: 1, Y: 1}, R: 5}},
	}); err == nil {
		t.Fatal("fully-obstructed target accepted")
	}
}

func TestDeployQuasiUDG(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 250, Seed: 2, Model: QuasiUDG})
	if err != nil {
		t.Fatal(err)
	}
	// Ring links are within the inner radius, hence always present.
	for i := range dep.OuterCycle {
		u := dep.OuterCycle[i]
		v := dep.OuterCycle[(i+1)%len(dep.OuterCycle)]
		if !dep.G.HasEdge(u, v) {
			t.Fatalf("quasi-UDG ring edge {%d,%d} missing", u, v)
		}
	}
}

func TestScheduleDCCEndToEnd(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 260, Seed: 3, Gamma: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	tau, err := PlanTau(Requirement{Gamma: dep.Gamma()})
	if err != nil {
		t.Fatal(err)
	}
	if tau != 6 {
		t.Fatalf("PlanTau(γ=1) = %d, want 6", tau)
	}
	res, err := dep.ScheduleDCC(tau, ScheduleOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deleted) == 0 {
		t.Fatal("no deletions on a degree-25 network")
	}
	ok, err := dep.VerifyConfine(res.Final, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("criterion violated after scheduling")
	}
	// Proposition 1: γ=1 with τ=6 is blanket coverage — the ground truth
	// must show no holes in the core area (up to sampling slack).
	rep := dep.CoverageReport(res.Final, 0)
	slack := rep.Resolution * 2 * math.Sqrt2
	if rep.MaxHoleDiameter() > slack {
		t.Fatalf("blanket coverage violated: hole diameter %.3f (slack %.3f)",
			rep.MaxHoleDiameter(), slack)
	}
}

func TestScheduleDistributedEndToEnd(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 5 preserves the criterion only from the achievable τ upward
	// (this deployment has a sparse pocket with a 5-void, so τ starts at 5).
	tau, err := dep.AchievableTau(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.ScheduleDCCDistributed(DistConfig{Tau: tau, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := dep.VerifyConfine(res.Final, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("distributed run violated the τ=%d criterion", tau)
	}
	if res.Stats.Broadcasts == 0 {
		t.Fatal("no communication recorded")
	}
}

func TestScheduleHGCEndToEnd(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.ScheduleHGC(5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HomologyOK {
		t.Fatal("HGC result fails homology verification")
	}
}

func TestDeployWithObstacle(t *testing.T) {
	dep, err := Deploy(DeployOptions{
		Nodes: 300,
		Seed:  6,
		Obstacles: []Circle{
			{Center: Point{X: 3, Y: 3}, R: 1.2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.InnerCycles) != 1 {
		t.Fatalf("inner cycles = %d, want 1", len(dep.InnerCycles))
	}
	// No interior node inside the obstacle.
	for i := 0; i < 300; i++ {
		if insideObstacle(dep.Points[i], dep.Obstacles, 0) {
			t.Fatalf("node %d inside obstacle", i)
		}
	}
	// Scheduling works on the multiply-connected deployment.
	res, err := dep.ScheduleDCC(4, ScheduleOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := dep.VerifyConfine(res.Final, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("criterion violated on obstacle deployment")
	}
	// The obstacle interior must not count as a coverage hole.
	rep := dep.CoverageReport(res.Final, 0)
	for _, h := range rep.Holes {
		allInside := true
		for _, c := range h.Cells {
			if !insideObstacle(c, dep.Obstacles, 0) {
				allInside = false
				break
			}
		}
		if allInside {
			t.Fatal("obstacle interior reported as coverage hole")
		}
	}
}

func TestParallelScheduleOption(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 180, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.ScheduleDCC(4, ScheduleOptions{Seed: 7, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := dep.VerifyConfine(res.Final, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("parallel schedule violated the criterion")
	}
}

// TestCoverageReportResolutionDefault: a resolution that is not finite and
// positive picks the Rs/8 default, as 0 does, so an uncovered core area
// reads as a hole at every such value.
func TestCoverageReportResolutionDefault(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	none := new(Graph) // no active node
	want := dep.CoverageReport(none, 0)
	if want.FullyCovered() {
		t.Fatal("no active node, yet the core area reads fully covered")
	}
	for _, res := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := dep.CoverageReport(none, res); !reflect.DeepEqual(want, got) {
			t.Errorf("resolution %v: report %+v, want the default's %+v", res, got, want)
		}
	}
}
