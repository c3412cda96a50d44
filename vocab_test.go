package dcc_test

import (
	"reflect"
	"strings"
	"testing"

	"dcc"

	"dcc/internal/core"
	"dcc/internal/dist"
	"dcc/internal/experiments"
	"dcc/internal/shard"
	"dcc/internal/stream"
	"dcc/internal/telemetry"
)

// TestConfigVocabulary: every configuration struct in the module — public
// options and internal engine configs alike — must spell the shared knobs
// with the same names and types (the vocabulary table in DESIGN.md §15):
//
//	Seed      int64                ← randomness / canonical priorities
//	Workers   int                  ← parallel-section concurrency bound
//	Telemetry *telemetry.Registry  ← optional metrics registry
//
// The test walks each struct with reflection so a renamed or retyped field
// fails here before it fails a reader. Synonyms (NumWorkers, RandSeed,
// Metrics, ...) are rejected outright; Workers is required only where the
// engine actually has parallel sections (the distributed simulator and the
// streaming engine are deliberately sequential). It also pins each struct's
// complete field list, in declaration order, so a change that adds or
// drops a knob edits the list here in the same diff.
func TestConfigVocabulary(t *testing.T) {
	type want struct {
		name    string
		typ     reflect.Type
		require bool
	}
	seed := want{"Seed", reflect.TypeOf(int64(0)), true}
	telem := want{"Telemetry", reflect.TypeOf((*telemetry.Registry)(nil)), true}
	workers := want{"Workers", reflect.TypeOf(int(0)), true}
	noWorkers := want{"Workers", reflect.TypeOf(int(0)), false}

	cases := []struct {
		label  string
		cfg    interface{}
		wants  []want
		fields string
	}{
		{"core.Options", core.Options{}, []want{seed, workers, telem},
			"Tau Seed Mode Workers Telemetry"},
		{"dist.Config", dist.Config{}, []want{seed, noWorkers, telem},
			"Tau Seed Loss Reliability MaxSuperRounds Faults Telemetry"},
		{"stream.Config", stream.Config{}, []want{seed, noWorkers, telem},
			"Tau Seed Radius Positions WAL SyncWAL Telemetry"},
		{"experiments.Config", experiments.Config{}, []want{seed, workers, telem},
			"Seed Runs Nodes AvgDegree MaxTau Quick Workers Telemetry"},
		{"shard.Options", shard.Options{}, []want{seed, workers, telem},
			"Tau Seed Workers Telemetry"},
		{"dcc.ScheduleOptions", dcc.ScheduleOptions{}, []want{seed, workers, telem},
			"Seed Parallel Workers Telemetry"},
	}
	// Field names that spell one of the shared concepts differently.
	// MaxSuperRounds et al. are engine-specific knobs, not synonyms.
	synonyms := []string{
		"RandSeed", "RandomSeed", "BaseSeed",
		"NumWorkers", "Concurrency", "Parallelism", "Threads",
		"Metrics", "Registry", "Telem",
	}
	for _, tc := range cases {
		st := reflect.TypeOf(tc.cfg)
		if st.Kind() != reflect.Struct {
			t.Fatalf("%s: not a struct", tc.label)
		}
		for _, w := range tc.wants {
			f, ok := st.FieldByName(w.name)
			if !ok {
				if w.require {
					t.Errorf("%s: missing required field %s %v", tc.label, w.name, w.typ)
				}
				continue
			}
			if !w.require {
				t.Errorf("%s: has field %s, but this engine is documented as sequential — drop it or update DESIGN.md §15", tc.label, w.name)
				continue
			}
			if f.Type != w.typ {
				t.Errorf("%s.%s has type %v, want %v", tc.label, w.name, f.Type, w.typ)
			}
		}
		for _, syn := range synonyms {
			if _, ok := st.FieldByName(syn); ok {
				t.Errorf("%s: field %s is a vocabulary synonym — use the shared name (DESIGN.md §15)", tc.label, syn)
			}
		}
		names := make([]string, st.NumField())
		for i := range names {
			names[i] = st.Field(i).Name
		}
		if got := strings.Join(names, " "); got != tc.fields {
			t.Errorf("%s has fields %q, want %q — a knob added or dropped updates this list", tc.label, got, tc.fields)
		}
	}
}
