package main

import (
	"time"

	"dcc/internal/cycles"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// layerStats accumulates the layer timings of replayed verdicts. Times are
// in microseconds, one sample per verdict (or per commit).
type layerStats struct {
	verdict, ball, twocore, span, self, commit []float64
	ballNodes, rowBits, nu, dirty              []float64
	triDecided                                 int
	// Replayed time attributed to each layer; the three sum to the total
	// of every timed verdict and commit.
	graphT, cyclesT, vptT time.Duration
}

// prober times one verdict layer by layer from outside. The verdict itself
// is the engine's call, vpt.Cache.Deletable. Its pieces are then re-run one
// by one on the same live view: ball extraction (graph), the 2-core peel
// (graph) and cycles.SpannedByShortWS on the ball (cycles: the peel plus the
// GF(2) elimination). What the pieces do not cover, the connectivity and
// void-confinement checks, is the verdict's self time (vpt).
type prober struct {
	st      *layerStats
	tr      *tracer
	tau, k  int
	scratch *graph.Scratch
	ws      *cycles.Workspace
}

func newProber(st *layerStats, tr *tracer, g *graph.Graph, tau int) *prober {
	return &prober{
		st:      st,
		tr:      tr,
		tau:     tau,
		k:       vpt.NeighborhoodRadius(tau),
		scratch: graph.NewScratch(g),
		ws:      cycles.NewWorkspace(),
	}
}

// verdict returns cache.Deletable(v), timing it and its pieces.
func (p *prober) verdict(cache *vpt.Cache, v graph.NodeID, parent int64) bool {
	t0 := time.Now()
	ok := cache.Deletable(v)
	t1 := time.Now()
	sub, _ := cache.View().ExtractNeighborhood(v, p.k, p.scratch)
	t2 := time.Now()
	core := sub.TwoCore()
	t3 := time.Now()
	cycles.SpannedByShortWS(sub, p.tau, p.ws)
	t4 := time.Now()
	tri := cycles.SpannedByShortWS(core, 3, p.ws)

	st := p.st
	verdict, ball, twocore, span := t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	self := verdict - ball - span
	st.verdict = append(st.verdict, us(verdict))
	st.ball = append(st.ball, us(ball))
	st.twocore = append(st.twocore, us(twocore))
	st.span = append(st.span, us(span))
	st.self = append(st.self, us(self))
	st.ballNodes = append(st.ballNodes, float64(sub.NumNodes()))
	st.rowBits = append(st.rowBits, float64(core.NumEdges()))
	st.nu = append(st.nu, float64(core.CycleSpaceDim()))
	if tri {
		st.triDecided++
	}
	st.graphT += ball + twocore
	st.cyclesT += span - twocore
	st.vptT += self

	if p.tr.keep(5) {
		id := p.tr.id()
		p.tr.add(id, parent, "replay.verdict", t0, t4, map[string]int64{
			"node":       int64(v),
			"tau":        int64(p.tau),
			"deletable":  b2i(ok),
			"ball_nodes": int64(sub.NumNodes()),
			"row_bits":   int64(core.NumEdges()),
			"nu":         int64(core.CycleSpaceDim()),
			"tri":        b2i(tri),
		})
		p.tr.add(p.tr.id(), id, "vpt.deletable", t0, t1, nil)
		p.tr.add(p.tr.id(), id, "graph.ball", t1, t2, nil)
		p.tr.add(p.tr.id(), id, "graph.twocore", t2, t3, nil)
		p.tr.add(p.tr.id(), id, "cycles.span", t3, t4, nil)
	}
	return ok
}

// commit runs cache.Commit for v, timed.
func (p *prober) commit(cache *vpt.Cache, v graph.NodeID, parent int64) {
	t0 := time.Now()
	dirty := cache.Commit([]graph.NodeID{v})
	t1 := time.Now()
	p.st.commit = append(p.st.commit, us(t1.Sub(t0)))
	p.st.dirty = append(p.st.dirty, float64(len(dirty)))
	p.st.vptT += t1.Sub(t0)
	if p.tr.keep(1) {
		p.tr.add(p.tr.id(), parent, "vpt.commit", t0, t1, map[string]int64{"node": int64(v), "dirty": int64(len(dirty))})
	}
}

// metrics returns the graph, cycles and vpt per-layer metrics. engineWall
// is the wall time of the engine calls whose histories were replayed.
func (st *layerStats) metrics(engineWall time.Duration) map[string]float64 {
	total := float64(st.graphT + st.cyclesT + st.vptT)
	return map[string]float64{
		"graph.ball_us":           quantile(st.ball, 0.5),
		"graph.ball_nodes":        quantile(st.ballNodes, 0.5),
		"graph.twocore_us":        quantile(st.twocore, 0.5),
		"graph.share":             ratio(float64(st.graphT), total),
		"cycles.span_us":          quantile(st.span, 0.5),
		"cycles.span_us_p90":      quantile(st.span, 0.9),
		"cycles.share":            ratio(float64(st.cyclesT), total),
		"cycles.row_bits":         quantile(st.rowBits, 0.5),
		"cycles.nu":               quantile(st.nu, 0.5),
		"cycles.tri_decided_frac": ratio(float64(st.triDecided), float64(len(st.verdict))),
		"vpt.verdict_us":          quantile(st.verdict, 0.5),
		"vpt.verdict_us_p90":      quantile(st.verdict, 0.9),
		"vpt.self_us":             quantile(st.self, 0.5),
		"vpt.commit_us":           quantile(st.commit, 0.5),
		"vpt.dirty_ball":          quantile(st.dirty, 0.5),
		"vpt.share":               ratio(float64(st.vptT), total),
		"vpt.wall_ratio":          ratio(total, float64(engineWall)),
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
