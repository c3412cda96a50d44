package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/trace"
)

// Durability format. Both files are streams of framed records
// (trace.AppendRecord: uvarint length, crc32c, payload), so torn writes
// and bit rot surface as trace.ErrTruncatedRecord / ErrCorruptRecord at
// the frame layer before any payload is trusted.
//
//	WAL      = header record, then one record per admitted event
//	snapshot = a single record: magic + stateBytes + sha256(stateBytes)
//
// The WAL header pins (tau, seed, radius); the snapshot embeds the full
// state fingerprint, so a decoded snapshot proves its own integrity and
// recovery can refuse artifacts from a different configuration.

var (
	walMagic  = []byte("DCCWAL1\x00")
	snapMagic = []byte("DCCSNAP1")
)

// maxSnapshotLen bounds the snapshot record: 64 MiB holds millions of
// nodes while still refusing a corrupt length field before allocation.
const maxSnapshotLen = 1 << 26

func appendWALHeader(dst []byte, cfg Config) []byte {
	dst = append(dst, walMagic...)
	dst = binary.AppendUvarint(dst, uint64(cfg.Tau))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(cfg.Seed))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Radius))
	return dst
}

// decodeWALHeader validates a WAL header payload against the recovering
// configuration.
func decodeWALHeader(p []byte, cfg Config) error {
	if len(p) < len(walMagic) || !bytes.Equal(p[:len(walMagic)], walMagic) {
		return fmt.Errorf("%w: leading record is not a WAL header", ErrCorruptWAL)
	}
	p = p[len(walMagic):]
	tau, n := binary.Uvarint(p)
	if n <= 0 || len(p[n:]) != 16 {
		return fmt.Errorf("%w: damaged WAL header", ErrCorruptWAL)
	}
	seed := int64(binary.LittleEndian.Uint64(p[n:]))
	radius := math.Float64frombits(binary.LittleEndian.Uint64(p[n+8:]))
	if int(tau) != cfg.Tau || seed != cfg.Seed || radius != cfg.Radius {
		return fmt.Errorf("%w: WAL written under tau=%d seed=%d radius=%v, recovering with tau=%d seed=%d radius=%v",
			ErrConfigMismatch, tau, seed, radius, cfg.Tau, cfg.Seed, cfg.Radius)
	}
	return nil
}

// Snapshot writes the engine's full state as one framed record; returns
// the bytes written. A snapshot plus the WAL suffix after its watermark is
// a complete recovery pair.
func (e *Engine) Snapshot(w io.Writer) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publish()
	state := e.stateBytes()
	sum := sha256.Sum256(state)
	payload := make([]byte, 0, len(snapMagic)+len(state)+len(sum))
	payload = append(payload, snapMagic...)
	payload = append(payload, state...)
	payload = append(payload, sum[:]...)
	n, err := trace.WriteRecord(w, payload)
	if err != nil {
		return n, err
	}
	e.stats.Snapshots++
	return n, nil
}

// snapState is a decoded snapshot, pre-installation.
type snapState struct {
	tau       int
	seed      int64
	radius    float64
	watermark uint64
	boundary  []graph.NodeID
	cycles    [][]graph.NodeID
	ids       []graph.NodeID
	dead      []bool
	pos       []geom.Point
	adj       [][]int32 // the topology's neighbour lists
}

// snapDecoder is a cursor over the snapshot state bytes with uniform
// bounds checking.
type snapDecoder struct {
	p   []byte
	err error
}

func (d *snapDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.err = fmt.Errorf("%w: damaged %s", ErrCorruptSnapshot, what)
		return 0
	}
	d.p = d.p[n:]
	return v
}

// count reads a length field and refuses one that could not possibly fit
// in the remaining bytes (each counted element costs ≥ minBytes), so a
// damaged count cannot drive a huge allocation.
func (d *snapDecoder) count(what string, minBytes int) int {
	v := d.uvarint(what)
	if d.err == nil && v > uint64(len(d.p)/minBytes) {
		d.err = fmt.Errorf("%w: %s count %d exceeds remaining payload", ErrCorruptSnapshot, what, v)
	}
	return int(v)
}

func (d *snapDecoder) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.p) < 8 {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorruptSnapshot, what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p)
	d.p = d.p[8:]
	return v
}

func (d *snapDecoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.p) == 0 {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorruptSnapshot, what)
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *snapDecoder) nodeID(what string) graph.NodeID {
	v := d.uvarint(what)
	if d.err == nil && v > maxStreamNodeID {
		d.err = fmt.Errorf("%w: %s %d out of range", ErrCorruptSnapshot, what, v)
	}
	return graph.NodeID(v)
}

// decodeSnapshot parses and integrity-checks one snapshot payload.
func decodeSnapshot(payload []byte) (snapState, error) {
	var s snapState
	if len(payload) < len(snapMagic)+sha256.Size ||
		!bytes.Equal(payload[:len(snapMagic)], snapMagic) {
		return s, fmt.Errorf("%w: missing snapshot magic", ErrCorruptSnapshot)
	}
	state := payload[len(snapMagic) : len(payload)-sha256.Size]
	var stored [sha256.Size]byte
	copy(stored[:], payload[len(payload)-sha256.Size:])
	if sha256.Sum256(state) != stored {
		return s, fmt.Errorf("%w: state fingerprint mismatch", ErrCorruptSnapshot)
	}
	tag := []byte("dcc-state-v1")
	if len(state) < len(tag) || !bytes.Equal(state[:len(tag)], tag) {
		return s, fmt.Errorf("%w: unknown state version", ErrCorruptSnapshot)
	}
	d := &snapDecoder{p: state[len(tag):]}

	s.tau = int(d.uvarint("tau"))
	s.seed = int64(d.u64("seed"))
	s.radius = math.Float64frombits(d.u64("radius"))
	s.watermark = d.uvarint("watermark")
	nb := d.count("boundary", 1)
	for i := 0; i < nb && d.err == nil; i++ {
		s.boundary = append(s.boundary, d.nodeID("boundary node"))
	}
	nc := d.count("cycle", 1)
	for i := 0; i < nc && d.err == nil; i++ {
		cl := d.count("cycle length", 1)
		var cyc []graph.NodeID
		for j := 0; j < cl && d.err == nil; j++ {
			cyc = append(cyc, d.nodeID("cycle node"))
		}
		s.cycles = append(s.cycles, cyc)
	}
	nn := d.count("node", 18)
	for i := 0; i < nn && d.err == nil; i++ {
		s.ids = append(s.ids, d.nodeID("node id"))
		s.dead = append(s.dead, d.byte("liveness flag") != 0)
		x := math.Float64frombits(d.u64("x"))
		y := math.Float64frombits(d.u64("y"))
		s.pos = append(s.pos, geom.Point{X: x, Y: y})
	}
	ne := d.count("edge", 2)
	var edges []graph.Edge
	for i := 0; i < ne && d.err == nil; i++ {
		u := d.nodeID("edge endpoint")
		v := d.nodeID("edge endpoint")
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	if d.err != nil {
		return s, d.err
	}
	if len(d.p) != 0 {
		return s, fmt.Errorf("%w: %d trailing state bytes", ErrCorruptSnapshot, len(d.p))
	}
	for i := 1; i < len(s.ids); i++ {
		if s.ids[i] <= s.ids[i-1] {
			return s, fmt.Errorf("%w: universe ids not strictly increasing", ErrCorruptSnapshot)
		}
	}
	var err error
	if s.adj, err = adjacencyOf(s.ids, edges); err != nil {
		return s, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return s, nil
}

// RecoveryInfo reports what Recover found and did.
type RecoveryInfo struct {
	// FromSnapshot is true when a snapshot was decoded and installed.
	FromSnapshot bool
	// SnapshotSeq is the snapshot's admission watermark.
	SnapshotSeq uint64
	// Replayed counts WAL events applied on top of the snapshot state.
	Replayed int
	// SkippedOld counts WAL events at or below the snapshot watermark.
	SkippedOld int
	// Duplicates counts WAL events at or below the replay watermark.
	Duplicates int
	// Rejected counts WAL events refused by validation or application —
	// exactly the events the live engine quarantined on first sight.
	Rejected int
	// TornTail is true when the WAL ends mid-record (a torn write); the
	// surviving prefix was replayed.
	TornTail bool
	// CorruptTail is true when replay stopped at a damaged record
	// (checksum or payload) rather than clean EOF.
	CorruptTail bool
	// ValidWALBytes is the byte length of the valid WAL prefix — the
	// offset to truncate the log to before appending new records.
	ValidWALBytes int64
}

// Recover rebuilds an engine from its durability artifacts: the genesis
// network plus configuration (which must match the original), an optional
// snapshot, and an optional WAL. Replay skips events the snapshot already
// contains, applies the rest through the same admission semantics as live
// ingestion, and stops at the first damaged record, reporting the valid
// prefix length so the caller can truncate before reusing the log.
//
// cfg.WAL, when set, is attached for subsequent appends but receives no
// new header — the caller hands over the (truncated) log the engine is
// recovering from, or an empty writer for a fresh epoch after the next
// snapshot.
func Recover(net core.Network, cfg Config, snapshot, wal io.Reader) (*Engine, RecoveryInfo, error) {
	var info RecoveryInfo
	liveWAL := cfg.WAL
	cfg.WAL = nil
	e, err := New(net, cfg)
	if err != nil {
		return nil, info, err
	}
	cfg.WAL = liveWAL

	if snapshot != nil {
		rr := trace.NewRecordReader(snapshot, maxSnapshotLen)
		payload, err := rr.Next()
		if err != nil {
			return nil, info, fmt.Errorf("%w: reading snapshot record: %v", ErrCorruptSnapshot, err)
		}
		s, err := decodeSnapshot(payload)
		if err != nil {
			return nil, info, err
		}
		if s.tau != cfg.Tau || s.seed != cfg.Seed || s.radius != cfg.Radius {
			return nil, info, fmt.Errorf("%w: snapshot taken under tau=%d seed=%d radius=%v",
				ErrConfigMismatch, s.tau, s.seed, s.radius)
		}
		if !slices.Equal(s.boundary, e.boundarySorted) || !slices.EqualFunc(s.cycles, e.cycles, slices.Equal) {
			return nil, info, fmt.Errorf("%w: snapshot boundary structure differs from the genesis network",
				ErrConfigMismatch)
		}
		e.topo.install(s)
		e.watermark = s.watermark
		e.coverStale = true
		info.FromSnapshot = true
		info.SnapshotSeq = s.watermark
	}

	if wal != nil {
		rr := trace.NewRecordReader(wal, maxEventRecordLen+len(walMagic))
		header, err := rr.Next()
		switch {
		case err == io.EOF:
			// Empty log: killed before the header write completed its
			// first byte, or a fresh file. Nothing to replay.
		case errors.Is(err, trace.ErrTruncatedRecord):
			info.TornTail = true
		case errors.Is(err, trace.ErrCorruptRecord):
			info.CorruptTail = true
		case err != nil:
			return nil, info, err
		default:
			if err := decodeWALHeader(header, cfg); err != nil {
				return nil, info, err
			}
			info.ValidWALBytes = rr.Offset()
			if err := e.replayWAL(rr, &info); err != nil {
				return nil, info, err
			}
		}
	}

	e.cfg.WAL = liveWAL
	if s, ok := liveWAL.(walSyncer); ok && cfg.SyncWAL {
		e.walSync = s
	}
	e.publish()
	return e, info, nil
}

// replayWAL applies the event records after the header, stopping at clean
// EOF or the first damaged record.
func (e *Engine) replayWAL(rr *trace.RecordReader, info *RecoveryInfo) error {
	for {
		prevOff := rr.Offset()
		payload, err := rr.Next()
		switch {
		case err == io.EOF:
			return nil
		case errors.Is(err, trace.ErrTruncatedRecord):
			info.TornTail = true
			return nil
		case errors.Is(err, trace.ErrCorruptRecord):
			info.CorruptTail = true
			return nil
		case err != nil:
			return err
		}
		ev, err := decodeEvent(payload)
		if err != nil {
			// A checksummed frame around an undecodable event is not a
			// torn write — the log was edited. Stop at the last good
			// prefix; the damaged record and everything after it are not
			// trusted.
			info.CorruptTail = true
			info.ValidWALBytes = prevOff
			return nil
		}
		info.ValidWALBytes = rr.Offset()
		if err := e.checkImmutable(ev); err != nil {
			// Live admission never logs these; their presence means the
			// producer and log disagree on genesis config. Skipping them
			// deterministically keeps replay total.
			e.reject(ev, err)
			info.Rejected++
			continue
		}
		if ev.Seq <= e.watermark {
			if info.FromSnapshot && ev.Seq <= info.SnapshotSeq {
				info.SkippedOld++
			} else {
				info.Duplicates++
			}
			continue
		}
		e.watermark = ev.Seq
		e.stats.Admitted++
		if err := e.applyOne(ev); err != nil {
			info.Rejected++
			continue
		}
		info.Replayed++
	}
}
