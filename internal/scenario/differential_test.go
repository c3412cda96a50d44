package scenario

import (
	"math"
	"testing"

	"dcc"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/hgc"
)

// coveredInFinal reports whether p is sensed by any node kept in final,
// honouring per-node radii. Virtual repair apexes (IDs beyond Points) have
// no position and never cover anything.
func coveredInFinal(sc *Scenario, final *graph.Graph, p geom.Point) bool {
	for _, v := range final.Nodes() {
		if int(v) >= len(sc.Dep.Points) {
			continue
		}
		rs := sc.Dep.Rs
		if sc.Radii != nil {
			rs = sc.Radii[v]
		}
		if geom.Dist(p, sc.Dep.Points[v]) <= rs {
			return true
		}
	}
	return false
}

func scenarioByName(t *testing.T, cat []*Scenario, name string) *Scenario {
	t.Helper()
	for _, sc := range cat {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("scenario %q not in catalogue", name)
	return nil
}

// TestRipsRelaxation pins the paper's separation between the two criteria
// (§IV-B): where the Rips complex is triangle-filled both criteria accept,
// and on triangle-free lattices HGC reports a hole (H1 non-trivial) while
// the τ-confine criterion accepts at the matching larger τ. HGC's verdict
// is the τ = 3 span question on the fence-coned graph, so this checks it
// against the catalogue's closed forms; FuzzShortSpan and the dccdebug
// cross-checks hold the span engine to the m-bit reference elimination.
func TestRipsRelaxation(t *testing.T) {
	cat := mustCatalogue(t)
	cases := []struct {
		name    string
		wantHGC bool
	}{
		{"square/tau3/covered", true},     // diagonals make every cell a 4-clique
		{"triangular/tau3/covered", true}, // unit triangles are 3-cliques
		{"honeycomb/tau3/covered", true},  // √3-chords triangulate every hexagon
		{"square/tau4/covered", false},    // bipartite: no triangles, empty 4-cycles
		{"honeycomb/tau6/covered", false}, // girth 6: no triangles, empty 6-cycles
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc := scenarioByName(t, cat, tc.name)
			if got := hgc.Verify(sc.Dep.G, sc.Dep.InnerCycles); got != tc.wantHGC {
				t.Errorf("hgc.Verify = %v, want %v", got, tc.wantHGC)
			}
			ok, err := sc.Dep.VerifyConfine(sc.Dep.G, sc.Oracle.AchievableTau)
			if err != nil {
				t.Fatalf("VerifyConfine: %v", err)
			}
			if !ok {
				t.Errorf("τ-confine criterion rejects at the oracle τ = %d", sc.Oracle.AchievableTau)
			}
		})
	}
}

// TestDifferentialDCCvsHGC schedules every connected catalogue scenario
// with both the DCC scheduler (at the oracle τ) and the HGC baseline, then
// cross-checks the two against the closed form:
//
//   - τ = 3 scenarios are triangle-filled by construction, so the HGC final
//     must pass the homology criterion;
//   - τ > 3 catalogue scenarios are triangle-free, so HGC must report a
//     hole even when the oracle proves the region covered — the phantom
//     verdict the τ-confine relaxation exists to avoid;
//   - on uncovered scenarios, every oracle hole stays uncovered under both
//     schedulers (deletion never manufactures coverage);
//   - on covered uniform scenarios within the HGC range condition γ ≤ √3,
//     the HGC final must remain fully covered, measured geometrically.
func TestDifferentialDCCvsHGC(t *testing.T) {
	ran := 0
	for _, sc := range mustCatalogue(t) {
		sc := sc
		if !sc.Oracle.Connected {
			continue
		}
		ran++
		t.Run(sc.Name, func(t *testing.T) {
			o := sc.Oracle
			hgcRes, err := sc.Dep.ScheduleHGC(1)
			if err != nil {
				t.Fatalf("ScheduleHGC: %v", err)
			}
			dccRes, err := sc.Dep.ScheduleDCC(o.AchievableTau, dcc.ScheduleOptions{Seed: 1})
			if err != nil {
				t.Fatalf("ScheduleDCC: %v", err)
			}

			if o.AchievableTau == 3 {
				if !hgcRes.HomologyOK {
					t.Error("HGC rejects a triangle-filled τ=3 scenario")
				}
			} else if !hasTriangles(sc.Dep.G) {
				if hgcRes.HomologyOK {
					t.Error("HGC accepts a triangle-free lattice; H1 should be non-trivial")
				}
			}

			for _, c := range o.HoleCenters {
				if coveredInFinal(sc, dccRes.Final, c) {
					t.Errorf("DCC final covers oracle hole center %v", c)
				}
				if coveredInFinal(sc, hgcRes.Final, c) {
					t.Errorf("HGC final covers oracle hole center %v", c)
				}
			}

			if o.Covered && sc.Radii == nil && sc.Dep.Gamma() <= math.Sqrt(3)+1e-9 && o.AchievableTau == 3 {
				rep := sc.Coverage(hgcRes.Final)
				if !rep.FullyCovered() {
					t.Errorf("HGC schedule opened %d holes (max diameter %.3f) within its range condition",
						len(rep.Holes), rep.MaxHoleDiameter())
				}
			}
		})
	}
	if ran < 15 {
		t.Errorf("differential ran on %d scenarios; catalogue should provide more", ran)
	}
}

func hasTriangles(g *graph.Graph) bool {
	for _, v := range g.Nodes() {
		nb := g.Neighbors(v)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if g.HasEdge(nb[i], nb[j]) {
					return true
				}
			}
		}
	}
	return false
}
