package stream

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dcc"
	"dcc/internal/geom"
	"dcc/internal/graph"
)

// BenchmarkSteppedCover times the low-latency path at two deployment
// sizes: a geometric deployment at average degree 25 and τ = 4, past its
// genesis election, takes one Mutator event per iteration through Step
// and then Cover. It reports the per-event medians of Step, Cover and the
// two together. The event stream depends on b.N, so compare runs at a
// fixed count:
//
//	go test -run NONE -bench SteppedCover -benchtime 30x ./internal/stream
func BenchmarkSteppedCover(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dep, err := dcc.Deploy(dcc.DeployOptions{Nodes: n, AvgDegree: 25, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			pos := make(map[graph.NodeID]geom.Point, len(dep.Points))
			for i, p := range dep.Points {
				pos[graph.NodeID(i)] = p
			}
			net := dep.Network()
			cfg := Config{Tau: 4, Seed: 11, Radius: dep.Rc, Positions: pos}
			e, err := New(net, cfg)
			if err != nil {
				b.Fatal(err)
			}
			e.Cover()
			m := NewMutator(net, cfg, 11)
			events := make([]Event, b.N)
			for i := range events {
				events[i] = m.Next()
			}
			step := make([]float64, b.N)
			cover := make([]float64, b.N)
			total := make([]float64, b.N)
			b.ResetTimer()
			for i, ev := range events {
				t0 := time.Now()
				if err := e.Step(ev); err != nil {
					b.Fatalf("event %d: %v", i, err)
				}
				t1 := time.Now()
				e.Cover()
				t2 := time.Now()
				step[i] = float64(t1.Sub(t0)) / 1e6
				cover[i] = float64(t2.Sub(t1)) / 1e6
				total[i] = float64(t2.Sub(t0)) / 1e6
			}
			b.StopTimer()
			b.ReportMetric(median(step), "step-p50-ms")
			b.ReportMetric(median(cover), "cover-p50-ms")
			b.ReportMetric(median(total), "p50-ms/event")
		})
	}
}

// median returns the median of xs (the upper one of an even count),
// sorting xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
