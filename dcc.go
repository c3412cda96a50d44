// Package dcc is a Go implementation of distributed connectivity-based
// coverage scheduling for wireless ad hoc and sensor networks, reproducing
// "Distributed Coverage in Wireless Ad Hoc and Sensor Networks by
// Topological Graph Approaches" (Dong, Liu, Liu, Liao — ICDCS 2010).
//
// The library schedules a sparse coverage set using only connectivity
// information: no coordinates, no range measurements. Its criterion is
// cycle-partition based — a network τ-confine covers the target area when
// the boundary cycles are expressible as a GF(2) sum of cycles of length
// ≤ τ — which both relaxes the homology-group criterion of Ghrist et al.
// (implemented here as the HGC baseline) and makes the coverage granularity
// configurable via τ.
//
// Typical use:
//
//	dep, err := dcc.Deploy(dcc.DeployOptions{Nodes: 1600, AvgDegree: 25, Seed: 1})
//	tau, err := dcc.PlanTau(dcc.Requirement{Gamma: dep.Gamma()})
//	res, err := dep.ScheduleDCC(tau, dcc.ScheduleOptions{Seed: 1})
//	report := dep.CoverageReport(res.Final, 0)     // ground-truth validation
//
// Geometry appears only at deployment and evaluation time; the scheduling
// path (internal/core, internal/dist) is purely graph-theoretic, exactly as
// in the paper.
package dcc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dcc/internal/boundary"
	"dcc/internal/core"
	"dcc/internal/cover"
	"dcc/internal/dist"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/hgc"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
)

// Re-exported fundamental types. Aliases keep the single implementation in
// the internal packages while making the names part of the public API.
type (
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Graph is an immutable undirected connectivity graph.
	Graph = graph.Graph
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Point is a point in the deployment plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Circle is a circle in the deployment plane.
	Circle = geom.Circle
	// Requirement expresses a coverage demand (Proposition 1).
	Requirement = core.Requirement
	// ScheduleResult is the outcome of a centralized scheduling run.
	ScheduleResult = core.Result
	// DistConfig configures the distributed protocol.
	DistConfig = dist.Config
	// DistResult is the outcome of a distributed run.
	DistResult = dist.Result
	// HGCResult is the outcome of the homology-baseline scheduler.
	HGCResult = hgc.Result
	// CoverageReport is a ground-truth coverage measurement.
	CoverageReport = cover.Report
	// RotationResult is one epoch of a sleep-rotation schedule.
	RotationResult = core.RotationResult
	// Telemetry is a metrics registry: every scheduling entry point
	// accepts one through its options' Telemetry field (nil = collection
	// off). Collection never changes schedule output — the observability
	// contract of DESIGN.md §14.
	Telemetry = telemetry.Registry
)

// NewTelemetry returns an empty metrics registry to pass through the
// options' Telemetry fields. The registry has no time source — counters,
// gauges and histograms collect; spans are no-ops — so library callers
// cannot accidentally make results timing-dependent. Wall-clock spans
// are a binary-level concern (see cmd/dccsim).
func NewTelemetry() *Telemetry { return telemetry.New() }

// Sentinel errors of the scheduling API. Every public entry point wraps
// these (with fmt.Errorf and %w) rather than returning bare strings, so
// callers branch with errors.Is regardless of which layer produced the
// failure:
//
//	if _, err := dcc.PlanTau(req); errors.Is(err, dcc.ErrNoFeasibleTau) { ... }
//	if _, err := dep.ScheduleDCC(2, opts); errors.Is(err, dcc.ErrTauTooSmall) { ... }
//
// The aliases mirror the internal/core definitions, so errors.Is matches
// whether an error crossed the public boundary or was produced internally.
var (
	// ErrNoFeasibleTau is returned by PlanTau when no confine size ≥ 3
	// satisfies the coverage requirement.
	ErrNoFeasibleTau = core.ErrNoFeasibleTau
	// ErrNotAchievable is returned by AchievableTau when no confine size
	// within the bound makes the boundary partitionable.
	ErrNotAchievable = core.ErrNotAchievable
	// ErrTauTooSmall is wrapped by every scheduling entry point —
	// ScheduleDCC, ScheduleDCCDistributed, ThinEdges, Rotate — and by
	// VerifyConfine when handed a confine size below the minimum of 3.
	ErrTauTooSmall = core.ErrTauTooSmall
	// ErrInvalidDeployOptions is wrapped by Deploy for options outside
	// their domain: Nodes ≤ 0; an AvgDegree, Rc, Gamma or BandWidth that
	// is negative or not finite; a QuasiInner or QuasiP that is not
	// finite or lies outside [0, 1]; a non-zero Target whose bounds are
	// not finite or that has no area; an obstacle whose centre is not
	// finite or whose radius is not finite and positive; a Model other
	// than 0, UDG and QuasiUDG. Zero still selects a field's default.
	ErrInvalidDeployOptions = errors.New("dcc: invalid deployment options")
)

// DeriveSeed deterministically derives an independent sub-seed from a base
// seed, a stream identifier, and a run index (chained SplitMix64
// finalizers). It is the one seed-derivation primitive of the module — the
// experiment harness derives every per-run deployment and scheduling seed
// through it — exported so downstream sweeps compose with the library's
// streams instead of inventing ad-hoc `seed + run*prime` offsets, whose
// streams overlap.
//
// The seed surface of the public API:
//
//	field                 consumed by                    randomness it drives
//	DeployOptions.Seed    Deploy                         node positions, QuasiUDG links
//	ScheduleOptions.Seed  ScheduleDCC (both modes)       deletion order, MIS priorities
//	DistConfig.Seed       ScheduleDCCDistributed         protocol priorities, loss, faults
//	seed arguments        ScheduleHGC, ThinEdges, Rotate same role as ScheduleOptions.Seed
//
// Each field fully determines its stage: equal inputs plus equal seeds give
// byte-identical outputs (independent of ScheduleOptions.Workers). To run N
// independent repetitions, hold one base seed and derive per-run values,
// giving each randomness consumer its own stream constant:
//
//	dep, _ := dcc.Deploy(dcc.DeployOptions{Nodes: n, Seed: dcc.DeriveSeed(base, 0, run)})
//	res, _ := dep.ScheduleDCC(tau, dcc.ScheduleOptions{Seed: dcc.DeriveSeed(base, 1, run)})
func DeriveSeed(base int64, stream uint64, run int) int64 {
	//lint:ignore streamid public re-export shim: callers of dcc.DeriveSeed pick the stream constant, and the analyzer checks them through the forwarder fact
	return runner.DeriveSeed(base, stream, run)
}

// PlanTau returns the largest confine size satisfying a requirement
// (Proposition 1).
func PlanTau(req Requirement) (int, error) { return core.PlanTau(req) }

// LinkModel selects how connectivity is derived from positions.
type LinkModel int

const (
	// UDG connects nodes within Rc (unit disk graph).
	UDG LinkModel = iota + 1
	// QuasiUDG always connects within QuasiInner·Rc, probabilistically
	// (QuasiP) between that and Rc, never beyond Rc.
	QuasiUDG
)

// DeployOptions parameterises Deploy.
type DeployOptions struct {
	// Nodes is the number of interior sensor nodes (excluding the
	// boundary ring added automatically).
	Nodes int
	// Target is the area to monitor (default: the unit-density square
	// sized so AvgDegree holds; see Rc).
	Target Rect
	// AvgDegree selects Rc so that the expected UDG degree matches
	// (default 25, the paper's Figure 3 configuration). Ignored when Rc is
	// set explicitly.
	AvgDegree float64
	// Rc is the maximum communication range. Zero derives it from
	// AvgDegree. The paper normalises Rc = 1 and scales the field instead.
	Rc float64
	// Gamma is the sensing ratio γ = Rc/Rs (default √3, the HGC
	// threshold).
	Gamma float64
	// Seed drives deployment and link randomness.
	Seed int64
	// Model selects the link model (default UDG).
	Model LinkModel
	// QuasiInner and QuasiP configure QuasiUDG (defaults 0.6 and 0.5).
	QuasiInner, QuasiP float64
	// Obstacles are circular regions without nodes; each obtains an inner
	// boundary ring, making the target multiply-connected.
	Obstacles []Circle
	// BandWidth marks deployed nodes within this distance of the target
	// border (or an obstacle edge) as boundary nodes, in addition to the
	// rings. Zero marks only the rings.
	BandWidth float64
}

func (o DeployOptions) withDefaults() (DeployOptions, error) {
	if o.Nodes <= 0 {
		return o, fmt.Errorf("%w: Nodes %d must be positive", ErrInvalidDeployOptions, o.Nodes)
	}
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	for _, f := range []struct {
		name     string
		v        float64
		fraction bool // must lie in [0, 1]
	}{
		{"AvgDegree", o.AvgDegree, false},
		{"Rc", o.Rc, false},
		{"Gamma", o.Gamma, false},
		{"BandWidth", o.BandWidth, false},
		{"QuasiInner", o.QuasiInner, true},
		{"QuasiP", o.QuasiP, true},
	} {
		switch {
		case !finite(f.v) || f.v < 0:
			return o, fmt.Errorf("%w: %s %v must be finite and non-negative", ErrInvalidDeployOptions, f.name, f.v)
		case f.fraction && f.v > 1:
			return o, fmt.Errorf("%w: %s %v must lie in [0, 1]", ErrInvalidDeployOptions, f.name, f.v)
		}
	}
	if t := o.Target; t != (Rect{}) && !(finite(t.MinX, t.MinY, t.MaxX, t.MaxY) && t.MaxX > t.MinX && t.MaxY > t.MinY) {
		return o, fmt.Errorf("%w: Target %+v must have finite bounds and a positive area", ErrInvalidDeployOptions, t)
	}
	for i, ob := range o.Obstacles {
		if !finite(ob.Center.X, ob.Center.Y, ob.R) || ob.R <= 0 {
			return o, fmt.Errorf("%w: Obstacles[%d] %+v must have a finite centre and a finite positive radius", ErrInvalidDeployOptions, i, ob)
		}
	}
	if o.Model != 0 && o.Model != UDG && o.Model != QuasiUDG {
		return o, fmt.Errorf("%w: unknown link model %d", ErrInvalidDeployOptions, o.Model)
	}
	if o.AvgDegree == 0 {
		o.AvgDegree = 25
	}
	if o.Target == (Rect{}) {
		// Normalise Rc = 1 like the paper and size the square for the
		// requested degree: deg = n·π·Rc²/area.
		side := math.Sqrt(float64(o.Nodes) * math.Pi / o.AvgDegree)
		o.Target = geom.Square(side)
	}
	if o.Rc == 0 {
		o.Rc = geom.RcForAvgDegree(o.Nodes, o.Target.Area(), o.AvgDegree)
	}
	if o.Gamma == 0 {
		o.Gamma = math.Sqrt(3)
	}
	if o.Model == 0 {
		o.Model = UDG
	}
	if o.QuasiInner == 0 {
		o.QuasiInner = 0.6
	}
	if o.QuasiP == 0 {
		o.QuasiP = 0.5
	}
	return o, nil
}

// Deployment is an embedded network: positions, connectivity, boundary
// structure and radio parameters. The scheduling algorithms only consume
// its graph-theoretic projection (Network); positions exist for evaluation
// and rendering.
type Deployment struct {
	// Points maps node ID (the index) to its position.
	Points []Point
	// G is the connectivity graph.
	G *Graph
	// Target is the monitored area.
	Target Rect
	// Rc and Rs are the communication and sensing ranges.
	Rc, Rs float64
	// BoundaryNodes lists all nodes marked as boundary.
	BoundaryNodes []NodeID
	// OuterCycle is the outer boundary ring in cycle order.
	OuterCycle []NodeID
	// InnerCycles are the obstacle rings in cycle order.
	InnerCycles [][]NodeID
	// Obstacles echoes the deployment obstacles.
	Obstacles []Circle
}

// Gamma returns the sensing ratio γ = Rc/Rs.
func (d *Deployment) Gamma() float64 { return d.Rc / d.Rs }

// Deploy generates an embedded network: interior nodes uniformly at random
// in the target area, a boundary ring along the target border (spacing
// 0.9·Rc, or 0.9·QuasiInner·Rc under QuasiUDG so ring links are certain),
// rings around obstacles, and the connectivity graph under the chosen link
// model.
func Deploy(opts DeployOptions) (*Deployment, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// The periphery band (paper §III-A: width ≥ Rc between the sensing
	// area's edge and the target's edge) is realised as a staggered double
	// ring: the outer ring carries the explicit boundary cycle, and an
	// inner ring inset by half a link guarantees a triangle apex for every
	// outer ring edge, so the boundary cycle is always 3-partitionable
	// regardless of where the random interior nodes landed. A single
	// sparse ring instead leaves occasional apex-less segments whose 4–6
	// cycle patches then block nearby deletions at odd τ.
	reach := opts.Rc
	if opts.Model == QuasiUDG {
		reach = opts.QuasiInner * opts.Rc
	}
	ringSpacing := 0.6 * reach
	ringInset := 0.45 * reach

	// Interior nodes, rejecting positions inside obstacles. The attempt
	// bound guards against obstacle sets that cover the whole target.
	pts := make([]Point, 0, opts.Nodes)
	for attempts := 0; len(pts) < opts.Nodes; attempts++ {
		if attempts > 1000*opts.Nodes {
			return nil, errors.New("dcc: obstacles leave too little free area for the deployment")
		}
		p := geom.UniformPoints(rng, 1, opts.Target)[0]
		if insideObstacle(p, opts.Obstacles, 0) {
			continue
		}
		pts = append(pts, p)
	}

	// Outer boundary ring (the explicit outer cycle).
	outerPts := geom.RingPoints(opts.Target, ringSpacing)
	outer := make([]NodeID, len(outerPts))
	for i, p := range outerPts {
		outer[i] = NodeID(len(pts))
		pts = append(pts, p)
	}
	// Staggered support ring just inside it (part of the periphery band;
	// not itself a boundary cycle).
	var band []NodeID
	for _, p := range geom.RingPoints(opts.Target.Shrink(ringInset), ringSpacing) {
		band = append(band, NodeID(len(pts)))
		pts = append(pts, p)
	}

	// Obstacle rings: the explicit inner cycle on the obstacle edge plus a
	// staggered support ring just outside it.
	var inner [][]NodeID
	for _, ob := range opts.Obstacles {
		n := int(math.Ceil(2 * math.Pi * ob.R / ringSpacing))
		if n < 3 {
			n = 3
		}
		cyc := make([]NodeID, n)
		for i, p := range geom.CirclePoints(ob.Center, ob.R, n) {
			cyc[i] = NodeID(len(pts))
			pts = append(pts, p)
		}
		inner = append(inner, cyc)
		outR := ob.R + ringInset
		m := int(math.Ceil(2 * math.Pi * outR / ringSpacing))
		for _, p := range geom.CirclePoints(ob.Center, outR, m) {
			if !opts.Target.Contains(p) {
				continue
			}
			band = append(band, NodeID(len(pts)))
			pts = append(pts, p)
		}
	}

	var g *Graph
	switch opts.Model {
	case UDG:
		g = geom.UDG(pts, opts.Rc)
	case QuasiUDG:
		g = geom.QuasiUDG(rng, pts, opts.QuasiInner*opts.Rc, opts.Rc, opts.QuasiP)
	}

	bset := make(map[NodeID]bool)
	for _, v := range outer {
		bset[v] = true
	}
	for _, v := range band {
		bset[v] = true
	}
	for _, cyc := range inner {
		for _, v := range cyc {
			bset[v] = true
		}
	}
	if opts.BandWidth > 0 {
		for _, v := range boundary.Band(pts, opts.Target, opts.BandWidth) {
			bset[v] = true
		}
		for i, p := range pts {
			if insideObstacle(p, opts.Obstacles, opts.BandWidth) {
				bset[NodeID(i)] = true
			}
		}
	}
	var bnodes []NodeID
	for _, v := range g.Nodes() {
		if bset[v] {
			bnodes = append(bnodes, v)
		}
	}

	d := &Deployment{
		Points:        pts,
		G:             g,
		Target:        opts.Target,
		Rc:            opts.Rc,
		Rs:            opts.Rc / opts.Gamma,
		BoundaryNodes: bnodes,
		OuterCycle:    outer,
		InnerCycles:   inner,
		Obstacles:     opts.Obstacles,
	}
	if err := d.Network().Validate(); err != nil {
		return nil, fmt.Errorf("dcc: deployment invalid: %w", err)
	}
	return d, nil
}

func insideObstacle(p Point, obstacles []Circle, margin float64) bool {
	for _, ob := range obstacles {
		if geom.Dist(p, ob.Center) < ob.R+margin {
			return true
		}
	}
	return false
}

// Network projects the deployment to the scheduler input.
func (d *Deployment) Network() core.Network {
	b := make(map[NodeID]bool, len(d.BoundaryNodes))
	for _, v := range d.BoundaryNodes {
		b[v] = true
	}
	cyc := make([][]NodeID, 0, 1+len(d.InnerCycles))
	cyc = append(cyc, d.OuterCycle)
	cyc = append(cyc, d.InnerCycles...)
	return core.Network{G: d.G, Boundary: b, BoundaryCycles: cyc}
}

// AchievableTau returns the smallest confine size τ ∈ [3, maxTau] already
// satisfied by the full deployment. Scheduling preserves the criterion only
// from this τ upward (Theorem 5's precondition).
func (d *Deployment) AchievableTau(maxTau int) (int, error) {
	net, _, err := core.RepairBoundaries(d.Network())
	if err != nil {
		return 0, err
	}
	return core.AchievableTau(net, maxTau)
}

// ScheduleOptions configures the centralized schedulers. Seed, Workers
// and Telemetry follow the module-wide config vocabulary (DESIGN.md §15):
// every scheduling options struct spells them the same way with the same
// zero-value defaults.
type ScheduleOptions struct {
	// Seed drives randomized choices.
	Seed int64
	// Parallel selects the MIS round engine, ScheduleDCCDistributed's
	// election run centrally, instead of sequential deletion.
	Parallel bool
	// Workers caps concurrency in parallel mode (0 = all CPUs, 1 =
	// sequential; output is identical for any value).
	Workers int
	// Telemetry is the optional metrics registry (nil = collection off;
	// never changes the schedule).
	Telemetry *Telemetry
}

// ScheduleDCC computes a sparse τ-confine coverage set with the paper's
// algorithm. For multiply-connected deployments the inner boundaries are
// cone-repaired first (§V-B).
func (d *Deployment) ScheduleDCC(tau int, opts ScheduleOptions) (ScheduleResult, error) {
	net, _, err := core.RepairBoundaries(d.Network())
	if err != nil {
		return ScheduleResult{}, err
	}
	mode := core.Sequential
	if opts.Parallel {
		mode = core.Parallel
	}
	return core.Schedule(net, core.Options{
		Tau:       tau,
		Seed:      opts.Seed,
		Mode:      mode,
		Workers:   opts.Workers,
		Telemetry: opts.Telemetry,
	})
}

// ScheduleDCCDistributed runs the message-passing protocol.
func (d *Deployment) ScheduleDCCDistributed(cfg DistConfig) (DistResult, error) {
	net, _, err := core.RepairBoundaries(d.Network())
	if err != nil {
		return DistResult{}, err
	}
	return dist.Run(net, cfg)
}

// ScheduleHGC runs the homology-group baseline (triangle granularity).
func (d *Deployment) ScheduleHGC(seed int64) (HGCResult, error) {
	net, _, err := core.RepairBoundaries(d.Network())
	if err != nil {
		return HGCResult{}, err
	}
	return hgc.Schedule(net, hgc.Options{Seed: seed})
}

// ThinEdges removes redundant links from a scheduled coverage set using
// the edge-deletion operator of the void-preserving transformation; the
// τ-confine guarantee is preserved. A nil graph returns an error.
func (d *Deployment) ThinEdges(final *Graph, tau int, seed int64) (*Graph, []Edge, error) {
	net, _, err := core.RepairBoundaries(d.Network())
	if err != nil {
		return nil, nil, err
	}
	return core.ThinEdges(net, final, tau, seed)
}

// Rotate computes successive coverage sets for sleep rotation: every epoch
// satisfies τ-confine coverage while duty is shifted away from the nodes
// that have worked the most, extending network lifetime.
func (d *Deployment) Rotate(tau, epochs int, seed int64) ([]RotationResult, error) {
	net, _, err := core.RepairBoundaries(d.Network())
	if err != nil {
		return nil, err
	}
	return core.Rotate(net, core.Options{Tau: tau, Seed: seed}, epochs)
}

// VerifyConfine checks the global cycle-partition criterion on a reduced
// graph of this deployment; tau below 3 returns a wrapped ErrTauTooSmall,
// and a nil graph an error.
func (d *Deployment) VerifyConfine(final *Graph, tau int) (bool, error) {
	cyc := make([][]NodeID, 0, 1+len(d.InnerCycles))
	cyc = append(cyc, d.OuterCycle)
	cyc = append(cyc, d.InnerCycles...)
	return core.VerifyConfine(final, cyc, tau)
}

// CoreArea returns the part of the target the confine guarantees apply to:
// the target shrunk by the periphery band (one Rc), per the paper's network
// model (§III-A).
func (d *Deployment) CoreArea() Rect { return d.Target.Shrink(d.Rc) }

// CoverageReport measures ground-truth sensing coverage of the kept node
// set (a nil final means the full deployment) over the core area at the
// given sampling resolution (0, or any value that is not finite and
// positive, picks Rs/8).
// Virtual repair nodes (no position) are ignored. Points inside obstacles
// are exempt: obstacle interiors are not part of the monitored area.
func (d *Deployment) CoverageReport(final *Graph, resolution float64) CoverageReport {
	if !(resolution > 0) || math.IsInf(resolution, 1) {
		resolution = d.Rs / 8
	}
	if final == nil {
		final = d.G
	}
	var active []Point
	for _, v := range final.Nodes() {
		if int(v) < len(d.Points) {
			active = append(active, d.Points[v])
		}
	}
	rep := cover.Analyze(active, d.Rs, d.CoreArea(), resolution)
	if len(d.Obstacles) == 0 {
		return rep
	}
	// Remove holes that lie entirely inside obstacle regions.
	kept := rep.Holes[:0]
	for _, h := range rep.Holes {
		outside := false
		for _, c := range h.Cells {
			if !insideObstacle(c, d.Obstacles, 0) {
				outside = true
				break
			}
		}
		if outside {
			kept = append(kept, h)
		}
	}
	rep.Holes = kept
	return rep
}
