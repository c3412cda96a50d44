package dcc

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"dcc/internal/core"
	"dcc/internal/shard"
	"dcc/internal/vpt"
)

// fuzzSchedule decodes fuzz bytes into deployment options inside Deploy's
// domain, a confine size and the engine choice. Missing bytes read as 0.
//
//	byte 0–1  deployment and schedule seed
//	byte 2    nodes, 20–120
//	byte 3    average degree, 6–22
//	byte 4    tau, 2–7
//	byte 5    bit 0 quasi-UDG links, bit 1 one central obstacle,
//	          bit 2 the Parallel engine
func fuzzSchedule(data []byte) (opts DeployOptions, tau int, parallel bool) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	opts = DeployOptions{
		Seed:      int64(at(0) | at(1)<<8),
		Nodes:     20 + at(2)%101,
		AvgDegree: float64(6 + at(3)%17),
		Model:     UDG,
	}
	flags := at(5)
	if flags&1 != 0 {
		opts.Model = QuasiUDG
	}
	if flags&2 != 0 {
		// Deploy's default target: the square sized for the degree.
		side := math.Sqrt(float64(opts.Nodes) * math.Pi / opts.AvgDegree)
		opts.Obstacles = []Circle{{Center: Point{X: side / 2, Y: side / 2}, R: side / 6}}
	}
	return opts, 2 + at(4)%6, flags&4 != 0
}

// FuzzPublicSchedule drives ScheduleDCC from Deploy's options: a confine
// size below 3 is rejected with ErrTauTooSmall; otherwise Kept and Deleted
// partition the repaired network's nodes, no kept internal node passes the
// local deletability test on Final, the confine criterion holds on Final
// whenever the deployment already satisfied it at τ (Theorem 5), and on
// obstacle-free inputs the shard engine elects exactly the canonical
// cover. Global non-redundancy (VerifyNonRedundant) is not asserted: the
// local test is sufficient for global deletability but not necessary.
func FuzzPublicSchedule(f *testing.F) {
	f.Add([]byte{1, 0, 40, 8, 2, 0})  // UDG, tau 4, sequential
	f.Add([]byte{7, 0, 80, 16, 3, 4}) // UDG, tau 5, parallel
	f.Add([]byte{3, 0, 60, 10, 1, 1}) // quasi-UDG, tau 3
	f.Add([]byte{9, 0, 90, 14, 4, 2}) // obstacle, tau 6
	f.Add([]byte{5, 0, 30, 6, 0, 0})  // tau 2: rejected
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, tau, parallel := fuzzSchedule(data)
		dep, err := Deploy(opts)
		if err != nil {
			t.Fatalf("Deploy(%+v): %v", opts, err)
		}
		sopts := ScheduleOptions{Seed: opts.Seed, Parallel: parallel, Workers: 2}
		res, err := dep.ScheduleDCC(tau, sopts)
		if tau < 3 {
			if !errors.Is(err, ErrTauTooSmall) {
				t.Fatalf("ScheduleDCC(%d) err = %v, want errors.Is ErrTauTooSmall", tau, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("ScheduleDCC(%d, %+v): %v", tau, sopts, err)
		}

		net, _, err := core.RepairBoundaries(dep.Network())
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[NodeID]bool, net.G.NumNodes())
		for _, v := range append(append([]NodeID(nil), res.Kept...), res.Deleted...) {
			if seen[v] || !net.G.HasNode(v) {
				t.Fatalf("node %d is kept or deleted twice, or is not in the network", v)
			}
			seen[v] = true
		}
		if len(seen) != net.G.NumNodes() {
			t.Fatalf("Kept and Deleted cover %d of %d nodes", len(seen), net.G.NumNodes())
		}
		for _, v := range res.KeptInternal {
			if vpt.VertexDeletable(res.Final, v, tau) {
				t.Fatalf("tau %d: kept internal node %d is still deletable on Final", tau, v)
			}
		}

		switch _, err := dep.AchievableTau(tau); {
		case err == nil:
			if ok, err := dep.VerifyConfine(res.Final, tau); err != nil || !ok {
				t.Fatalf("tau %d is achievable but Final fails VerifyConfine (ok=%v, err=%v)", tau, ok, err)
			}
		case !errors.Is(err, ErrNotAchievable):
			t.Fatalf("AchievableTau(%d): %v", tau, err)
		}

		if len(opts.Obstacles) > 0 {
			return
		}
		want, err := core.Schedule(net, core.Options{Tau: tau, Seed: opts.Seed, Mode: core.Canonical})
		if err != nil {
			t.Fatal(err)
		}
		got, err := shardSchedule(dep, tau, shard.Options{Seed: opts.Seed, Shards: 4})
		if err != nil {
			t.Fatalf("shard schedule: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tau %d: the shard engine's cover differs from the canonical engine's\nwant stats %+v\ngot  stats %+v",
				tau, want.Stats, got.Stats)
		}
	})
}
