package dcc

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"dcc/internal/runner"
)

// smallDeployment builds a small deployment for API-surface tests.
func smallDeployment(t *testing.T, seed int64) *Deployment {
	t.Helper()
	dep, err := Deploy(DeployOptions{Nodes: 60, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestSentinelErrorsWrapped: every public scheduling entry point must
// return an error matching the documented sentinel via errors.Is — wrapped,
// not a bare fmt.Errorf string.
func TestSentinelErrorsWrapped(t *testing.T) {
	dep := smallDeployment(t, 1)

	if _, err := dep.ScheduleDCC(2, ScheduleOptions{}); !errors.Is(err, ErrTauTooSmall) {
		t.Fatalf("ScheduleDCC(2) err = %v, want errors.Is ErrTauTooSmall", err)
	}
	if _, err := dep.ScheduleDCC(2, ScheduleOptions{Parallel: true}); !errors.Is(err, ErrTauTooSmall) {
		t.Fatalf("parallel ScheduleDCC(2) err = %v, want errors.Is ErrTauTooSmall", err)
	}
	if _, err := dep.ScheduleDCCDistributed(DistConfig{Tau: 2}); !errors.Is(err, ErrTauTooSmall) {
		t.Fatalf("ScheduleDCCDistributed(tau=2) err = %v, want errors.Is ErrTauTooSmall", err)
	}
	if _, _, err := dep.ThinEdges(dep.G, 2, 1); !errors.Is(err, ErrTauTooSmall) {
		t.Fatalf("ThinEdges(tau=2) err = %v, want errors.Is ErrTauTooSmall", err)
	}
	if _, err := dep.Rotate(2, 2, 1); !errors.Is(err, ErrTauTooSmall) {
		t.Fatalf("Rotate(tau=2) err = %v, want errors.Is ErrTauTooSmall", err)
	}
	if _, err := PlanTau(Requirement{Gamma: 2.5}); !errors.Is(err, ErrNoFeasibleTau) {
		t.Fatalf("PlanTau(gamma=2.5) err = %v, want errors.Is ErrNoFeasibleTau", err)
	}
	if _, err := dep.AchievableTau(2); !errors.Is(err, ErrNotAchievable) {
		t.Fatalf("AchievableTau(2) err = %v, want errors.Is ErrNotAchievable", err)
	}
	for _, tau := range []int{-1, 0, 2} {
		if _, err := dep.VerifyConfine(dep.G, tau); !errors.Is(err, ErrTauTooSmall) {
			t.Fatalf("VerifyConfine(tau=%d) err = %v, want errors.Is ErrTauTooSmall", tau, err)
		}
	}

	// Deploy validates its options at the boundary: each of these used to
	// panic deep in the generator, deploy a nonsensical network, or fail
	// with a misleading downstream error.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		opts DeployOptions
	}{
		{"Nodes=0", DeployOptions{}},
		{"Nodes=-3", DeployOptions{Nodes: -3}},
		{"Rc=-1", DeployOptions{Nodes: 50, Rc: -1}},
		{"Rc=NaN", DeployOptions{Nodes: 50, Rc: nan}},
		{"Rc=+Inf", DeployOptions{Nodes: 50, Rc: inf}},
		{"AvgDegree=-5", DeployOptions{Nodes: 50, AvgDegree: -5}},
		{"AvgDegree=+Inf", DeployOptions{Nodes: 50, AvgDegree: inf}},
		{"Gamma=-2", DeployOptions{Nodes: 50, Gamma: -2}},
		{"Gamma=NaN", DeployOptions{Nodes: 50, Gamma: nan}},
		{"BandWidth=-0.5", DeployOptions{Nodes: 50, BandWidth: -0.5}},
		{"QuasiInner=-1", DeployOptions{Nodes: 50, Model: QuasiUDG, QuasiInner: -1}},
		{"QuasiInner=1.5", DeployOptions{Nodes: 50, Model: QuasiUDG, QuasiInner: 1.5}},
		{"QuasiP=2", DeployOptions{Nodes: 50, QuasiP: 2}},
		{"QuasiP=NaN", DeployOptions{Nodes: 50, Model: QuasiUDG, QuasiP: nan}},
	} {
		if _, err := Deploy(tc.opts); !errors.Is(err, ErrInvalidDeployOptions) {
			t.Errorf("Deploy(%s) err = %v, want errors.Is ErrInvalidDeployOptions", tc.name, err)
		}
	}
}

// TestDeriveSeedMirrorsRunner: the public DeriveSeed must be the same
// derivation the internal experiment harness uses.
func TestDeriveSeedMirrorsRunner(t *testing.T) {
	for base := int64(-2); base <= 2; base++ {
		for stream := uint64(0); stream < 4; stream++ {
			for run := 0; run < 4; run++ {
				if got, want := DeriveSeed(base, stream, run), runner.DeriveSeed(base, stream, run); got != want {
					t.Fatalf("DeriveSeed(%d,%d,%d) = %d, want %d", base, stream, run, got, want)
				}
			}
		}
	}
}

// TestSeedDeterminism: each documented Seed field fully determines its
// stage — equal seeds give byte-identical outputs, distinct derived seeds
// give (on this instance) different ones.
func TestSeedDeterminism(t *testing.T) {
	base := int64(42)
	depSeed := DeriveSeed(base, 0, 0)
	schedSeed := DeriveSeed(base, 1, 0)

	depA := smallDeployment(t, depSeed)
	depB := smallDeployment(t, depSeed)
	if !reflect.DeepEqual(depA.Points, depB.Points) || !reflect.DeepEqual(depA.G, depB.G) {
		t.Fatal("Deploy is not deterministic in DeployOptions.Seed")
	}

	resA, err := depA.ScheduleDCC(4, ScheduleOptions{Seed: schedSeed})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := depB.ScheduleDCC(4, ScheduleOptions{Seed: schedSeed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("ScheduleDCC is not deterministic in ScheduleOptions.Seed")
	}

	// Parallel mode must be worker-count invariant for a fixed seed.
	for _, workers := range []int{1, 3} {
		res, err := depA.ScheduleDCC(4, ScheduleOptions{Seed: schedSeed, Parallel: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := depB.ScheduleDCC(4, ScheduleOptions{Seed: schedSeed, Parallel: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("parallel ScheduleDCC differs at Workers=%d", workers)
		}
	}

	distA, err := depA.ScheduleDCCDistributed(DistConfig{Tau: 4, Seed: schedSeed})
	if err != nil {
		t.Fatal(err)
	}
	distB, err := depB.ScheduleDCCDistributed(DistConfig{Tau: 4, Seed: schedSeed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(distA, distB) {
		t.Fatal("ScheduleDCCDistributed is not deterministic in DistConfig.Seed")
	}
}

// TestStatsDeletions: the Deletions counter of every result surface must
// equal the length of the deletion order it reports.
func TestStatsDeletions(t *testing.T) {
	dep := smallDeployment(t, 7)
	res, err := dep.ScheduleDCC(4, ScheduleOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Deletions != len(res.Deleted) {
		t.Fatalf("Stats.Deletions = %d, want %d", res.Stats.Deletions, len(res.Deleted))
	}

	dres, err := dep.ScheduleDCCDistributed(DistConfig{Tau: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stats.Deletions != len(dres.Deleted) {
		t.Fatalf("dist Stats.Deletions = %d, want %d", dres.Stats.Deletions, len(dres.Deleted))
	}
}
