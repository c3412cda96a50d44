// Package runner is the deterministic worker-pool engine behind the
// experiment harness: it fans N independent jobs across a bounded set of
// goroutines while guaranteeing that every observable output — results,
// their order, and the propagated error — is identical for every worker
// count, including the sequential Workers=1 path.
//
// The determinism contract (DESIGN.md §8/§9) is preserved by construction:
//
//   - Results are collected by job index, never by completion order; the
//     caller merges them in index order after the barrier, so stats series
//     and text emission are bit-identical regardless of scheduling.
//   - On failure the error returned is the one produced by the lowest job
//     index that fails — exactly the error a sequential left-to-right run
//     would surface. Jobs are dispatched in increasing index order and a
//     job is only skipped when a lower-indexed job has already failed, so
//     the minimal failing index is always discovered.
//   - Each job derives its own randomness from DeriveSeed; no job shares
//     mutable state with another.
//
// The package itself uses no wall clock and no global rand source, so it
// passes the repository's dcclint gates and stays inside the "reproducible
// from Config alone" guarantee.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dcc/internal/telemetry"
)

// tel is the pool's registry, attached by Instrument. The pool is shared
// process-wide, so its telemetry hook is too; a nil registry (the
// default) makes every telemetry operation a no-op.
var tel atomic.Pointer[telemetry.Registry]

// Instrument routes the pool's metrics into reg: the deterministic
// runner.maps / runner.jobs counters, the runner.job span (per-job
// latency, when reg has a clock), and the runner.occupancy timing
// histogram of jobs-per-worker (scheduler-dependent by nature, so
// timing-class). Pass nil to detach.
func Instrument(reg *telemetry.Registry) { tel.Store(reg) }

// occupancyBounds buckets jobs-per-worker counts.
var occupancyBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Map runs job(0..n-1) across at most workers goroutines and returns the
// results indexed by job. workers ≤ 0 selects runtime.GOMAXPROCS(0);
// workers == 1 is the plain sequential loop. The result slice, the error
// (the lowest-index failure), and any panic surfaced are independent of
// the worker count.
//
// When a job fails, jobs with higher indices may be skipped; their slots
// in the (discarded) result slice stay zero. A panicking job does not
// crash the pool: the panic of the lowest panicking index is re-raised on
// the caller's goroutine after all workers have drained.
func Map[T any](n, workers int, job func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	reg := tel.Load()
	reg.Counter("runner.maps").Inc()
	reg.Counter("runner.jobs").Add(int64(n))
	occupancy := reg.TimingValues("runner.occupancy", occupancyBounds)
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			sp := reg.StartSpan("runner.job")
			v, err := job(i)
			sp.End()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		occupancy.Observe(int64(n))
		return out, nil
	}

	var (
		next   atomic.Int64 // dispatch counter: indices are claimed in order
		failed atomic.Int64 // lowest job index that errored or panicked so far
		errs   = make([]error, n)
		panics = make([]*panicValue, n)
		wg     sync.WaitGroup
	)
	failed.Store(int64(n))

	// lowerFailure publishes i as a failure index, keeping the minimum.
	lowerFailure := func(i int) {
		for {
			cur := failed.Load()
			if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}

	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = &panicValue{val: r}
				lowerFailure(i)
			}
		}()
		sp := reg.StartSpan("runner.job")
		v, err := job(i)
		sp.End()
		if err != nil {
			errs[i] = err
			lowerFailure(i)
			return
		}
		out[i] = v
	}

	perWorker := make([]int64, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				// Once some job below i has failed, i's result can never be
				// observed; every later dispatch is larger still, so stop.
				// Jobs with indices below the failure keep running, which is
				// what makes the final minimum deterministic.
				if int64(i) > failed.Load() {
					return
				}
				perWorker[w]++
				runOne(i)
			}
		}(w)
	}
	wg.Wait()
	for _, c := range perWorker {
		occupancy.Observe(c)
	}

	if f := failed.Load(); f < int64(n) {
		i := int(f)
		if p := panics[i]; p != nil {
			panic(fmt.Sprintf("runner: job %d panicked: %v", i, p.val))
		}
		return nil, errs[i]
	}
	return out, nil
}

// panicValue wraps a recovered panic so a nil entry means "no panic".
type panicValue struct{ val any }

// DeriveSeed deterministically derives the seed of one job from a base
// seed, a stream identifier, and a run index, via chained SplitMix64
// finalizers. Distinct (stream, run) pairs map to statistically
// independent, collision-free seeds (TestSeedDerivationDisjoint covers
// every stream the experiment harness uses for runs ≤ 10000), replacing
// the earlier ad-hoc `seed + run*prime` offsets whose streams overlap.
func DeriveSeed(base int64, stream uint64, run int) int64 {
	x := SplitMix64(uint64(base))
	x = SplitMix64(x ^ stream)
	x = SplitMix64(x ^ uint64(int64(run)))
	return int64(x)
}

// SplitMix64 is one step of the SplitMix64 generator (Steele et al.,
// "Fast splittable pseudorandom number generators", OOPSLA 2014) from
// state x: the golden-ratio increment, then a bijective avalanche mix.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
