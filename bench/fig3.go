package main

import (
	"fmt"
	"slices"
	"time"

	"dcc"
	"dcc/internal/core"
)

// fig3Params sizes a Figure 3 workload: Deployments networks of Nodes
// interior nodes at AvgDegree (γ = √3, the Deploy default), each scheduled
// by the default public path at every confine size in Taus (ascending).
type fig3Params struct {
	Deployments int
	Nodes       int
	AvgDegree   float64
	Taus        []int
}

var (
	// fig3Dense is the paper's Figure 3 density. Its verdicts are dominated
	// by the GF(2) elimination of cycles.SpannedByShortWS.
	fig3Dense = fig3Params{Deployments: 2, Nodes: 1000, AvgDegree: 25, Taus: []int{3, 4, 5, 6}}
	// fig3Sparse has small balls that triangles alone mostly decide, so
	// ball extraction, the 2-core and Cache.Commit weigh as much as the
	// elimination: the mirror image of fig3Dense.
	fig3Sparse = fig3Params{Deployments: 4, Nodes: 5000, AvgDegree: 8, Taus: []int{3, 4, 5, 6}}
)

// inputSeed fixes every workload's deployment geometry and the stream
// workload's event stream (and, see streamEngineSeed and shardPriorityRun,
// the canonical priorities of the stream and shard workloads); --seed
// drives ScheduleDCC's deletion order and the shard certifier's sample.
// Seed-drawn inputs would leave the metrics unsteady: across random
// 1000-node deployments at degree 25 the Figure 3 sweep's time varies
// twofold, and about a third of them keep only a fifth to a third of the
// usual cover at τ = 4 (one such deployment measured only becomes
// τ-partitionable at τ = 6); seed-drawn event streams left the stream's
// kept fraction anywhere between 0.08 and 0.22. 3 is the first value whose
// fig3-dense and stream-churn inputs are not of that kind.
const inputSeed int64 = 3

// Seed streams of the benchmark's own draws through dcc.DeriveSeed. Each
// constant is used by one function; the values keep clear of the
// experiment harness's streams.
const (
	streamFig3Deploy uint64 = 0x62656e6368000001 + iota
	streamFig3Schedule
	streamStreamDeploy
	streamStreamEngine
	streamStreamEvents
	streamShardInput
	streamShardSchedule
	streamShardSample
)

func deployFig3(p fig3Params) ([]*dcc.Deployment, error) {
	deps := make([]*dcc.Deployment, p.Deployments)
	for d := range deps {
		dep, err := dcc.Deploy(dcc.DeployOptions{
			Nodes:     p.Nodes,
			AvgDegree: p.AvgDegree,
			Seed:      dcc.DeriveSeed(inputSeed, streamFig3Deploy, d),
		})
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", d, err)
		}
		deps[d] = dep
	}
	return deps, nil
}

// runFig3 times Deployment.ScheduleDCC over every deployment × confine
// size, one call at a time; one pass covers them all. An event is one
// deployment's sweep over every confine size, one row of Figure 3: single
// calls would not do, their times split in two clusters (τ ≤ 4 and τ ≥ 5)
// of equal size, which puts the median on the gap between them.
func runFig3(e *env, p fig3Params) (*report, error) {
	rep := &report{}
	var deps []*dcc.Deployment
	if err := e.buildInputs(rep, func() (err error) {
		deps, err = deployFig3(p)
		return err
	}); err != nil {
		return nil, err
	}

	seeds := make([]int64, len(deps))
	for d := range seeds {
		seeds[d] = dcc.DeriveSeed(e.seed, streamFig3Schedule, d)
	}
	nt := len(p.Taus)
	first := make([]dcc.ScheduleResult, len(deps)*nt) // first pass, by d*nt+ti
	ok := make([]bool, len(first))
	firstWall := make([]time.Duration, len(first))
	err := e.repeat(rep, func(pass int) (time.Duration, error) {
		passID := e.tr.id()
		passStart := time.Now()
		for d, dep := range deps {
			opts := dcc.ScheduleOptions{Seed: seeds[d]}
			var sweep time.Duration
			for ti, tau := range p.Taus {
				start := time.Now()
				res, err := dep.ScheduleDCC(tau, opts)
				end := time.Now()
				e.tr.add(e.tr.id(), passID, "dcc.ScheduleDCC", start, end, map[string]int64{"deployment": int64(d), "tau": int64(tau)})
				sweep += end.Sub(start)
				rep.attempted++
				i := d*nt + ti
				switch {
				case err != nil:
					fmt.Fprintf(e.log, "deployment %d τ=%d: %v\n", d, tau, err)
					rep.failed++
				case pass == 0:
					first[i], ok[i], firstWall[i] = res, true, end.Sub(start)
				case !ok[i] || !slices.Equal(res.Deleted, first[i].Deleted):
					fmt.Fprintf(e.log, "deployment %d τ=%d: pass %d differs from the first\n", d, tau, pass)
					rep.failed++
				}
			}
			rep.events = append(rep.events, sweep)
		}
		passEnd := time.Now()
		e.tr.add(passID, 0, "pass", passStart, passEnd, nil)
		return passEnd.Sub(passStart), nil
	})
	if err != nil {
		return nil, err
	}
	if err := rep.measureRSS(); err != nil {
		return nil, err
	}
	rep.perSecond = float64(len(rep.events)) / sumDur(rep.events).Seconds()
	var kept float64
	for i, res := range first {
		if ok[i] {
			kept += float64(len(res.KeptInternal)) / float64(p.Nodes)
		}
	}
	rep.keptFrac = kept / float64(len(first))

	for d, dep := range deps {
		var broken []int
		for ti := nt - 1; ti >= 0; ti-- {
			i := d*nt + ti
			if !ok[i] {
				continue
			}
			holds, err := dep.VerifyConfine(first[i].Final, p.Taus[ti])
			if err != nil {
				return nil, err
			}
			if !holds {
				broken = append(broken, p.Taus[ti])
			}
		}
		v, err := theorem5(dep, broken)
		if err != nil {
			return nil, err
		}
		if v > 0 {
			fmt.Fprintf(e.log, "deployment %d: %d confine sizes lost τ-partitionability (Theorem 5)\n", d, v)
		}
		rep.failed += v
	}
	if e.tr != nil {
		layers, failed, err := fig3Layers(e, p, deps, seeds[0], first, ok, firstWall)
		if err != nil {
			return nil, err
		}
		rep.layers = layers
		rep.failed += failed
	}
	return rep, nil
}

// fig3Layers replays every first-pass result and adds the election-loop
// counters: the engine's tests, and how many the canonical engine needs
// instead on the first deployment (at τ=4 when the sweep has it; seed0 is
// that deployment's schedule seed).
func fig3Layers(e *env, p fig3Params, deps []*dcc.Deployment, seed0 int64, first []dcc.ScheduleResult, ok []bool, wall []time.Duration) (map[string]float64, int, error) {
	st := &layerStats{}
	nt := len(p.Taus)
	var engineWall time.Duration
	var tests, deletions, failed int
	nets := make([]core.Network, len(deps))
	for d, dep := range deps {
		net, _, err := core.RepairBoundaries(dep.Network())
		if err != nil {
			return nil, 0, err
		}
		nets[d] = net
		for ti, tau := range p.Taus {
			i := d*nt + ti
			if !ok[i] {
				continue
			}
			res := first[i]
			id := e.tr.id()
			start := time.Now()
			v := replay(history{g: net.G, tau: tau, deleted: res.Deleted, kept: res.KeptInternal}, newProber(st, e.tr, net.G, tau), id)
			e.tr.add(id, 0, "replay.result", start, time.Now(), map[string]int64{"deployment": int64(d), "tau": int64(tau)})
			if v > 0 {
				fmt.Fprintf(e.log, "deployment %d τ=%d: %d replay violations\n", d, tau, v)
				failed++
			}
			engineWall += wall[i]
			tests += res.Stats.Tests
			deletions += len(res.Deleted)
		}
	}
	ti := max(slices.Index(p.Taus, 4), 0)
	canon, err := core.Schedule(nets[0], core.Options{Tau: p.Taus[ti], Seed: seed0, Mode: core.Canonical})
	if err != nil {
		return nil, 0, err
	}
	layers := st.metrics(engineWall)
	layers["core.tests"] = float64(tests)
	layers["core.tests_per_deletion"] = ratio(float64(tests), float64(deletions))
	layers["core.canonical_test_ratio"] = ratio(float64(canon.Stats.Tests), float64(first[ti].Stats.Tests))
	notExercised(layers, "stream.")
	notExercised(layers, "shard.")
	return layers, failed, nil
}
