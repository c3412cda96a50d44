package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// maxSpans caps the child spans a traced run keeps in memory. Past the cap
// the per-verdict spans of the larger workloads are only aggregated into
// the per-layer metrics; parent-less spans (passes, replayed results) are
// always kept, and the timed calls come before any verdict.
const maxSpans = 200_000

// span is one timed interval, written as one NDJSON line.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps the spans of a traced run in memory until the run ends. All
// methods are no-ops on a nil tracer, so untraced code paths need no checks.
type tracer struct {
	epoch   time.Time
	nextID  int64
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name their parent before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.nextID++
	return t.nextID
}

// keep reports whether n more spans fit under the cap, counting them as
// dropped when they do not, so callers can skip building spans that would
// be dropped anyway.
func (t *tracer) keep(n int) bool {
	if t == nil {
		return false
	}
	if len(t.spans)+n > maxSpans {
		t.dropped += n
		return false
	}
	return true
}

// add records a finished span (parent 0 means parent-less).
func (t *tracer) add(id, parent int64, name string, start, end time.Time, attrs map[string]int64) {
	if t == nil || parent != 0 && !t.keep(1) {
		return
	}
	t.spans = append(t.spans, span{
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		End:    end.Sub(t.epoch).Nanoseconds(),
		Attrs:  attrs,
	})
}

// write saves the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
