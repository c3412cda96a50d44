package telemetry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// The NDJSON export schema, versioned so downstream tooling (scripts,
// dashboards) can detect incompatible changes. One JSON object per line,
// sorted by series name; scalar series carry "value", histograms carry
// count/sum/min/max plus the bucket layout. Field sets are additive within
// a schema version.
const schemaVersion = "dcc-metrics-v1"

// bucketJSON is one histogram bucket: the count of observations ≤ le
// (and above the previous bound). The overflow bucket has no le.
type bucketJSON struct {
	LE *int64 `json:"le,omitempty"`
	N  int64  `json:"n"`
}

// lineJSON is one exported series.
type lineJSON struct {
	Schema  string       `json:"schema"`
	Class   string       `json:"class"`
	Type    string       `json:"type"`
	Name    string       `json:"name"`
	Unit    string       `json:"unit,omitempty"`
	Value   *int64       `json:"value,omitempty"`
	Count   *int64       `json:"count,omitempty"`
	Sum     *int64       `json:"sum,omitempty"`
	Min     *int64       `json:"min,omitempty"`
	Max     *int64       `json:"max,omitempty"`
	Buckets []bucketJSON `json:"buckets,omitempty"`
}

// WriteNDJSON writes every registered series as newline-delimited JSON in
// name order — the `dccsim -metrics` format. Values are read with atomic
// loads; for an exact snapshot, write after the workload quiesces.
func (r *Registry) WriteNDJSON(w io.Writer) error {
	for _, m := range r.sorted() {
		line := lineJSON{
			Schema: schemaVersion,
			Class:  m.class.String(),
			Type:   m.kind,
			Name:   m.name,
			Unit:   m.unit,
		}
		switch m.kind {
		case "counter":
			v := m.c.Value()
			line.Value = &v
		case "gauge":
			v := m.g.Value()
			line.Value = &v
		case "histogram":
			count, sum, min, max := m.h.Count(), m.h.Sum(), m.h.Min(), m.h.Max()
			line.Count, line.Sum, line.Min, line.Max = &count, &sum, &min, &max
			bounds, counts := m.h.Buckets()
			line.Buckets = make([]bucketJSON, len(counts))
			for i := range counts {
				line.Buckets[i].N = counts[i]
				if i < len(bounds) {
					le := bounds[i]
					line.Buckets[i].LE = &le
				}
			}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return fmt.Errorf("telemetry: encoding series %q: %w", m.name, err)
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint hashes the deterministic series — names, kinds and exact
// values, in name order — and nothing else: timing series are excluded by
// class, so the fingerprint is identical across worker counts, machines,
// and telemetry clock choices. It is the value the equivalence tests pin.
func (r *Registry) Fingerprint() [32]byte {
	b := []byte("dcc-metrics-fp-v1")
	for _, m := range r.sorted() {
		if m.class != Deterministic {
			continue
		}
		b = append(b, m.kind...)
		b = append(b, 0)
		b = append(b, m.name...)
		b = append(b, 0)
		switch m.kind {
		case "counter":
			b = binary.LittleEndian.AppendUint64(b, uint64(m.c.Value()))
		case "gauge":
			b = binary.LittleEndian.AppendUint64(b, uint64(m.g.Value()))
		case "histogram":
			bounds, counts := m.h.Buckets()
			b = binary.AppendUvarint(b, uint64(len(bounds)))
			for _, bd := range bounds {
				b = binary.LittleEndian.AppendUint64(b, uint64(bd))
			}
			for _, n := range counts {
				b = binary.LittleEndian.AppendUint64(b, uint64(n))
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(m.h.Count()))
			b = binary.LittleEndian.AppendUint64(b, uint64(m.h.Sum()))
			b = binary.LittleEndian.AppendUint64(b, uint64(m.h.Min()))
			b = binary.LittleEndian.AppendUint64(b, uint64(m.h.Max()))
		}
	}
	return sha256.Sum256(b)
}
