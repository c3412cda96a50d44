// Stream-id registry of the experiment harness. This file is the single
// place stream constants are declared: the streamid analyzer requires every
// runner.DeriveSeed call to pass one of these names, and streams_test.go
// holds the registry to its invariants (unique values, exhaustive naming,
// kebab-case pairing), so adding a stream here is a compile-plus-test-
// checked operation, not a convention.
package experiments

// Seed streams of the harness. Every randomized draw derives its seed as
// runner.DeriveSeed(cfg.Seed, stream, run); distinct streams keep the
// figure runners' randomness disjoint no matter how many runners exist
// (TestSeedDerivationDisjoint checks all of them for Runs ≤ 10000).
//
// Values are iota-assigned, so uniqueness inside this block is structural;
// the one stream constant living outside this package
// (core.streamCanonicalPriority = 0x63616e6f) is far above this range by
// construction, and TestStreamRegistry pins it as the ceiling.
const (
	streamFig2Deploy uint64 = iota + 1
	streamFig2Schedule
	streamFig3Deploy
	streamFig3Schedule
	streamFig4Deploy
	streamFig4Schedule
	streamTrace // Figures 5–7 share one synthetic trace
	streamEnginesDeploy
	streamEnginesSchedule
	streamLossDeploy
	streamLossSchedule
	streamQuasiDeploy
	streamQuasiSchedule
	streamRotationDeploy
	streamRotationSchedule
	streamReliabilityDeploy
	streamReliabilitySchedule
	streamScenarioSchedule
	streamStabilityJitter
	streamStreamEvents // streaming replay: deployment + Mutator event randomness
	streamStreamChaos  // streaming replay: engine/schedule seed + crash offsets
)

// seedStreams names every stream above for the disjointness and registry
// tests. The key is the kebab-case form of the constant name minus its
// "stream" prefix; TestStreamRegistry enforces the pairing.
var seedStreams = map[string]uint64{
	"fig2-deploy":          streamFig2Deploy,
	"fig2-schedule":        streamFig2Schedule,
	"fig3-deploy":          streamFig3Deploy,
	"fig3-schedule":        streamFig3Schedule,
	"fig4-deploy":          streamFig4Deploy,
	"fig4-schedule":        streamFig4Schedule,
	"trace":                streamTrace,
	"engines-deploy":       streamEnginesDeploy,
	"engines-schedule":     streamEnginesSchedule,
	"loss-deploy":          streamLossDeploy,
	"loss-schedule":        streamLossSchedule,
	"quasi-deploy":         streamQuasiDeploy,
	"quasi-schedule":       streamQuasiSchedule,
	"rotation-deploy":      streamRotationDeploy,
	"rotation-schedule":    streamRotationSchedule,
	"reliability-deploy":   streamReliabilityDeploy,
	"reliability-schedule": streamReliabilitySchedule,
	"scenario-schedule":    streamScenarioSchedule,
	"stability-jitter":     streamStabilityJitter,
	"stream-events":        streamStreamEvents,
	"stream-chaos":         streamStreamChaos,
}
