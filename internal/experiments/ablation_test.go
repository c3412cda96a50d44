package experiments

import (
	"strings"
	"testing"
)

func TestAblationEngines(t *testing.T) {
	var b strings.Builder
	res, err := AblationEngines(&b, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.KeptSequential <= 0 || res.KeptParallel <= 0 || res.KeptDistributed <= 0 {
		t.Fatalf("degenerate coverage sets: %+v", res)
	}
	// MIS-parallel is the distributed protocol's election run centrally:
	// fault-free, the two rows are equal. The sequential oracle lands in
	// the same ballpark (order effects only).
	if res.KeptParallel != res.KeptDistributed || res.TestsParallel != res.TestsDistributed {
		t.Fatalf("MIS-parallel and distributed rows differ: %+v", res)
	}
	if lo, hi := min(res.KeptSequential, res.KeptParallel), max(res.KeptSequential, res.KeptParallel); hi > 2.5*lo {
		t.Fatalf("engines diverge too much: %+v", res)
	}
	if res.Broadcasts <= 0 || res.KBytes <= 0 || res.Rounds <= 0 {
		t.Fatalf("distributed cost not recorded: %+v", res)
	}
	if !strings.Contains(b.String(), "Ablation") {
		t.Fatal("missing header")
	}
}

func TestAblationLoss(t *testing.T) {
	var b strings.Builder
	res, err := AblationLoss(&b, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LossRates) != len(res.Kept) || len(res.Kept) != len(res.CriterionOK) {
		t.Fatal("series lengths differ")
	}
	// Loss-free runs must always satisfy the criterion.
	if res.CriterionOK[0] != 1 {
		t.Fatalf("criterion violated without loss: %v", res.CriterionOK)
	}
	for i, k := range res.Kept {
		if k <= 0 {
			t.Fatalf("no nodes kept at loss %v", res.LossRates[i])
		}
	}
}

func TestAblationQuasiUDG(t *testing.T) {
	var b strings.Builder
	res, err := AblationQuasiUDG(&b, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.KeptUDG <= 0 || res.KeptQuasi <= 0 {
		t.Fatalf("degenerate coverage sets: %+v", res)
	}
	// The criterion must hold under both models whenever it held
	// initially (τ is chosen at or above the achievable value).
	if res.OKUDG < 1 || res.OKQuasi < 1 {
		t.Fatalf("criterion broken: %+v", res)
	}
}

func TestAblationRotation(t *testing.T) {
	var b strings.Builder
	res, err := AblationRotation(&b, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.PerEpoch <= 0 {
		t.Fatal("empty epochs")
	}
	if res.Distinct < res.PerEpoch {
		t.Fatalf("distinct nodes %v below per-epoch %v", res.Distinct, res.PerEpoch)
	}
	if res.MaxDuty > float64(res.Epochs) {
		t.Fatalf("duty %v exceeds epochs %d", res.MaxDuty, res.Epochs)
	}
}
