//go:build !dccdebug

package graph

// debugChecks gates the deep structural invariant assertions. Build with
// -tags dccdebug (e.g. `go test -tags dccdebug ./...`) to enable them; in
// regular builds this file provides free no-ops.
const debugChecks = false

func debugCheckGraph(*Graph) {}

type debugScratch struct{}

func debugCheckBall(*DeleteView, NodeID, int, *Scratch, *Adjacency, []NodeID) {}
