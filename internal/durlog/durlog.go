// Package durlog is the durable cycle log: an append-only, segmented disk
// format holding every produced broadcast cycle plus periodic database
// snapshots, so a station restart (or a late tuner) can resume the exact
// stream a dead process was broadcasting. The whole repository is built on
// deterministic replay, which makes durability verifiable to the byte: a
// source reopened from a durlog directory must continue production
// byte-identically to one that never stopped.
//
// # Format
//
// A log directory holds fixed-capacity segment files named
// seg-00000000.bpl, seg-00000001.bpl, ... (monotonic ordinals, records
// never split across segments; a record larger than the segment capacity
// gets a segment of its own). Each segment is a run of records:
//
//	offset  size  field
//	0       4     record magic 0x42504C47 ("BPLG"), big-endian
//	4       1     kind (1 = cycle, 2 = snapshot)
//	5       8     seq (cycle records: 0-based cycle index;
//	              snapshot records: cycles applied when taken)
//	13      4     payload length (bytes)
//	17      n     payload (cycle: an internal/wire becast frame;
//	              snapshot: the encoding in snapshot.go)
//	17+n    4     CRC-32 (IEEE) over bytes 4..17+n (kind through payload)
//
// Cycle payloads reuse the wire frame encoding verbatim — the bytes on
// disk are the bytes a subscriber would have heard on air, with their own
// magic, version, and CRC inside the record payload.
//
// # Recovery
//
// Open scans every segment and indexes the complete records. A torn tail
// — a crash mid-append leaves a partial record at the end of the last
// segment — is truncated back to the last complete record and the log
// stays writable; Open never refuses a directory for a torn tail.
// Corruption anywhere else (an earlier segment, a bad CRC, a cycle
// sequence gap) is a clean error, never a panic and never a silently
// wrong cycle.
package durlog

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bpush/internal/broadcast"
	"bpush/internal/obs"
	"bpush/internal/wire"
)

const (
	// recMagic guards every record boundary ("BPLG" big-endian).
	recMagic = 0x42504C47

	kindCycle    = 1
	kindSnapshot = 2

	recHeaderLen  = 4 + 1 + 8 + 4 // magic, kind, seq, payload length
	recTrailerLen = 4             // CRC-32 (IEEE)
	recOverhead   = recHeaderLen + recTrailerLen

	// DefaultSegmentBytes is the segment capacity when Options leaves it
	// zero: large enough that a segment holds many cycles of the default
	// workload, small enough that a scan touches bounded memory.
	DefaultSegmentBytes = 8 << 20

	// maxPayload bounds a record payload; wire frames carry the same cap,
	// so a corrupt length field cannot drive a huge allocation.
	maxPayload = wire.MaxFrameSize

	segPrefix = "seg-"
	segSuffix = ".bpl"
)

// Options tunes a Log.
type Options struct {
	// SegmentBytes is the per-segment capacity; a full segment is closed
	// and the next ordinal started. Zero means DefaultSegmentBytes.
	SegmentBytes int
	// Metrics, when non-nil, receives the log's counters and gauges
	// (durlog.append.*, durlog.replay.*, durlog.snapshot.*,
	// durlog.recover.truncated_bytes, durlog.segments). The log itself
	// never reads the wall clock — counters are pure functions of the
	// appended stream — so it stays inside the deterministic scope.
	Metrics *obs.Registry
}

// Log is an open durable cycle log. Appends are serialized by the caller's
// producer lock in practice, but the Log is safe for concurrent use:
// reads (ReadCycle, LatestSnapshot) may run while an append is in flight.
type Log struct {
	dir      string
	segBytes int
	metrics  *obs.Registry

	mu        sync.RWMutex
	segs      []*segment
	cycles    []recRef // index i locates cycle i
	snaps     []snapRef
	tailSize  int64 // bytes in the last segment
	recovered int64 // bytes truncated from the tail at Open
	closed    bool
}

// segment is one open segment file.
type segment struct {
	ordinal int
	f       *os.File
}

// recRef locates one record inside the log.
type recRef struct {
	seg int32
	off int64
	len int32
}

// snapRef locates one snapshot record and remembers its sequence.
type snapRef struct {
	seq uint64
	ref recRef
}

func segName(ordinal int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, ordinal, segSuffix)
}

// Open opens (or creates) the log in dir, scanning every segment to
// rebuild the record index. A torn tail is truncated; see the package
// comment for the recovery rule.
func Open(dir string, opt Options) (*Log, error) {
	segBytes := opt.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durlog: %w", err)
	}
	ordinals, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, segBytes: segBytes, metrics: opt.Metrics}
	if len(ordinals) == 0 {
		if err := l.openTail(0); err != nil {
			return nil, err
		}
		l.gauge()
		return l, nil
	}
	for i, ord := range ordinals {
		if ord != i {
			l.closeAll()
			return nil, fmt.Errorf("durlog: segment %s missing (found %s)", segName(i), segName(ord))
		}
		f, err := os.OpenFile(filepath.Join(dir, segName(ord)), os.O_RDWR, 0o644)
		if err != nil {
			l.closeAll()
			return nil, fmt.Errorf("durlog: %w", err)
		}
		l.segs = append(l.segs, &segment{ordinal: ord, f: f})
		if err := l.scanSegment(i, i == len(ordinals)-1); err != nil {
			l.closeAll()
			return nil, err
		}
	}
	l.gauge()
	return l, nil
}

// listSegments returns the segment ordinals present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durlog: %w", err)
	}
	var ordinals []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil {
			return nil, fmt.Errorf("durlog: unparseable segment name %s", name)
		}
		ordinals = append(ordinals, n)
	}
	sort.Ints(ordinals)
	return ordinals, nil
}

// openTail creates and opens a fresh tail segment.
func (l *Log) openTail(ordinal int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(ordinal)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durlog: %w", err)
	}
	l.segs = append(l.segs, &segment{ordinal: ordinal, f: f})
	l.tailSize = 0
	return nil
}

// scanSegment walks segment index si, appending complete records to the
// index. In the tail segment (isTail) the first damaged or incomplete
// record truncates the file back to the last complete one; anywhere else
// it is an error.
func (l *Log) scanSegment(si int, isTail bool) error {
	seg := l.segs[si]
	info, err := seg.f.Stat()
	if err != nil {
		return fmt.Errorf("durlog: %w", err)
	}
	size := info.Size()
	var off int64
	buf := make([]byte, recHeaderLen)
	var rec []byte // one record buffer for the whole scan, grown as needed
	for off < size {
		kind, seq, payloadLen, err := l.readHeader(seg.f, off, size, buf)
		if err == nil {
			rec, err = verifyRecord(seg.f, off, kind, seq, payloadLen, rec)
		}
		if err != nil {
			if isTail {
				return l.truncateTail(si, off, size)
			}
			return fmt.Errorf("durlog: segment %s corrupt at offset %d: %w", segName(seg.ordinal), off, err)
		}
		recLen := int64(recOverhead) + int64(payloadLen)
		ref := recRef{seg: int32(si), off: off, len: int32(recLen)}
		switch kind {
		case kindCycle:
			l.cycles = append(l.cycles, ref)
		case kindSnapshot:
			l.snaps = append(l.snaps, snapRef{seq: seq, ref: ref})
		}
		off += recLen
	}
	if isTail {
		l.tailSize = size
	}
	return nil
}

// readHeader reads and validates one record header at off; the payload
// must fit inside the segment.
func (l *Log) readHeader(f *os.File, off, size int64, buf []byte) (kind byte, seq uint64, payloadLen uint32, err error) {
	if size-off < recOverhead {
		return 0, 0, 0, fmt.Errorf("short record: %d bytes left", size-off)
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		return 0, 0, 0, err
	}
	if be32(buf[0:4]) != recMagic {
		return 0, 0, 0, fmt.Errorf("bad record magic %#x", be32(buf[0:4]))
	}
	kind = buf[4]
	if kind != kindCycle && kind != kindSnapshot {
		return 0, 0, 0, fmt.Errorf("unknown record kind %d", kind)
	}
	seq = be64(buf[5:13])
	payloadLen = be32(buf[13:17])
	if uint64(payloadLen) > maxPayload {
		return 0, 0, 0, fmt.Errorf("payload length %d exceeds cap %d", payloadLen, int64(maxPayload))
	}
	if int64(payloadLen) > size-off-recOverhead {
		return 0, 0, 0, fmt.Errorf("payload length %d overruns segment", payloadLen)
	}
	if kind == kindCycle && seq != uint64(len(l.cycles)) {
		return 0, 0, 0, fmt.Errorf("cycle sequence %d, want %d", seq, len(l.cycles))
	}
	if kind == kindSnapshot && seq > uint64(len(l.cycles)) {
		return 0, 0, 0, fmt.Errorf("snapshot sequence %d ahead of %d logged cycles", seq, len(l.cycles))
	}
	return kind, seq, payloadLen, nil
}

// verifyRecord re-reads the whole record at off into scratch (grown when
// too small) and checks its CRC. It returns the buffer for the next call.
func verifyRecord(f *os.File, off int64, kind byte, seq uint64, payloadLen uint32, scratch []byte) ([]byte, error) {
	n := recOverhead + int(payloadLen)
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	rec := scratch[:n]
	if _, err := f.ReadAt(rec, off); err != nil {
		return scratch, err
	}
	body := rec[4 : recHeaderLen+int(payloadLen)]
	want := be32(rec[len(rec)-recTrailerLen:])
	if crc32.ChecksumIEEE(body) != want {
		return scratch, fmt.Errorf("record CRC mismatch (kind %d, seq %d)", kind, seq)
	}
	return scratch, nil
}

// truncateTail cuts the tail segment back to off, discarding the torn
// suffix, and leaves the log writable from there.
func (l *Log) truncateTail(si int, off, size int64) error {
	seg := l.segs[si]
	if err := seg.f.Truncate(off); err != nil {
		return fmt.Errorf("durlog: truncating torn tail of %s: %w", segName(seg.ordinal), err)
	}
	if err := seg.f.Sync(); err != nil {
		return fmt.Errorf("durlog: %w", err)
	}
	l.tailSize = off
	l.recovered += size - off
	if l.metrics != nil {
		l.metrics.Counter("durlog.recover.truncated_bytes").Add(size - off)
	}
	return nil
}

// Cycles returns the number of complete cycle records in the log.
func (l *Log) Cycles() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.cycles)
}

// RecoveredBytes reports how many torn-tail bytes Open truncated.
func (l *Log) RecoveredBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.recovered
}

// AppendCycle encodes becast b and appends the frame as the next cycle
// record; see AppendFrame.
func (l *Log) AppendCycle(b *broadcast.Bcast) error {
	frame, err := wire.Encode(b)
	if err != nil {
		return err
	}
	return l.AppendFrame(frame)
}

// AppendFrame appends an encoded wire frame (wire.Encode's output) as
// the next cycle record. The log copies the bytes into the record and
// neither retains nor writes frame, so the producer can put the same
// frame on air. The record is not fsynced per append — a crash loses at
// most the unsynced suffix, which recovery truncates; call Sync for a
// hard durability point.
func (l *Log) AppendFrame(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, err := l.appendRecord(kindCycle, uint64(len(l.cycles)), frame)
	if err != nil {
		return err
	}
	l.cycles = append(l.cycles, ref)
	if l.metrics != nil {
		l.metrics.Counter("durlog.append.records").Inc()
		l.metrics.Counter("durlog.append.bytes").Add(int64(ref.len))
	}
	return nil
}

// ReadCycle decodes cycle i (0-based) from disk. The returned becast is
// fresh and unprimed, exactly like one decoded from a network frame.
func (l *Log) ReadCycle(i int) (*broadcast.Bcast, error) {
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return nil, errors.New("durlog: log closed")
	}
	if i < 0 || i >= len(l.cycles) {
		n := len(l.cycles)
		l.mu.RUnlock()
		return nil, fmt.Errorf("durlog: cycle %d out of range 0..%d", i, n-1)
	}
	ref := l.cycles[i]
	f := l.segs[ref.seg].f
	l.mu.RUnlock()

	rec := make([]byte, ref.len)
	if _, err := f.ReadAt(rec, ref.off); err != nil {
		return nil, fmt.Errorf("durlog: reading cycle %d: %w", i, err)
	}
	kind, seq, payload, err := decodeRecord(rec)
	if err != nil {
		return nil, fmt.Errorf("durlog: cycle %d: %w", i, err)
	}
	if kind != kindCycle || seq != uint64(i) {
		return nil, fmt.Errorf("durlog: cycle %d: index points at kind %d seq %d", i, kind, seq)
	}
	b, err := wire.DecodeBytes(payload)
	if err != nil {
		return nil, fmt.Errorf("durlog: cycle %d: %w", i, err)
	}
	if l.metrics != nil {
		l.metrics.Counter("durlog.replay.records").Inc()
		l.metrics.Counter("durlog.replay.bytes").Add(int64(ref.len))
	}
	return b, nil
}

// AppendSnapshot appends a snapshot record and fsyncs: a snapshot is a
// recovery point, so it is always made durable immediately.
func (l *Log) AppendSnapshot(s *Snapshot) error {
	payload, err := encodeSnapshot(s)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.Seq > uint64(len(l.cycles)) {
		return fmt.Errorf("durlog: snapshot seq %d ahead of %d logged cycles", s.Seq, len(l.cycles))
	}
	ref, err := l.appendRecord(kindSnapshot, s.Seq, payload)
	if err != nil {
		return err
	}
	if err := l.segs[len(l.segs)-1].f.Sync(); err != nil {
		return fmt.Errorf("durlog: %w", err)
	}
	l.snaps = append(l.snaps, snapRef{seq: s.Seq, ref: ref})
	if l.metrics != nil {
		l.metrics.Counter("durlog.snapshot.saved").Inc()
		l.metrics.Counter("durlog.append.bytes").Add(int64(ref.len))
	}
	return nil
}

// LatestSnapshot decodes the most recent snapshot record, or returns
// (nil, nil) when the log holds none.
func (l *Log) LatestSnapshot() (*Snapshot, error) {
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return nil, errors.New("durlog: log closed")
	}
	if len(l.snaps) == 0 {
		l.mu.RUnlock()
		return nil, nil
	}
	sr := l.snaps[len(l.snaps)-1]
	f := l.segs[sr.ref.seg].f
	l.mu.RUnlock()

	rec := make([]byte, sr.ref.len)
	if _, err := f.ReadAt(rec, sr.ref.off); err != nil {
		return nil, fmt.Errorf("durlog: reading snapshot: %w", err)
	}
	kind, seq, payload, err := decodeRecord(rec)
	if err != nil {
		return nil, fmt.Errorf("durlog: snapshot: %w", err)
	}
	if kind != kindSnapshot || seq != sr.seq {
		return nil, fmt.Errorf("durlog: snapshot: index points at kind %d seq %d", kind, seq)
	}
	s, err := decodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	if s.Seq != sr.seq {
		return nil, fmt.Errorf("durlog: snapshot payload seq %d != record seq %d", s.Seq, sr.seq)
	}
	if l.metrics != nil {
		l.metrics.Counter("durlog.snapshot.restored").Inc()
	}
	return s, nil
}

// appendRecord frames and writes one record, rolling to a new segment
// when the current tail is full. Caller holds the write lock.
func (l *Log) appendRecord(kind byte, seq uint64, payload []byte) (recRef, error) {
	if l.closed {
		return recRef{}, errors.New("durlog: log closed")
	}
	if uint64(len(payload)) > maxPayload {
		return recRef{}, fmt.Errorf("durlog: payload %d exceeds cap %d", len(payload), int64(maxPayload))
	}
	rec := make([]byte, recOverhead+len(payload))
	put32(rec[0:4], recMagic)
	rec[4] = kind
	put64(rec[5:13], seq)
	put32(rec[13:17], uint32(len(payload)))
	copy(rec[recHeaderLen:], payload)
	put32(rec[len(rec)-recTrailerLen:], crc32.ChecksumIEEE(rec[4:recHeaderLen+len(payload)]))

	if l.tailSize > 0 && l.tailSize+int64(len(rec)) > int64(l.segBytes) {
		tail := l.segs[len(l.segs)-1]
		if err := tail.f.Sync(); err != nil {
			return recRef{}, fmt.Errorf("durlog: %w", err)
		}
		if err := l.openTail(tail.ordinal + 1); err != nil {
			return recRef{}, err
		}
		l.gauge()
	}
	si := len(l.segs) - 1
	if _, err := l.segs[si].f.WriteAt(rec, l.tailSize); err != nil {
		return recRef{}, fmt.Errorf("durlog: %w", err)
	}
	ref := recRef{seg: int32(si), off: l.tailSize, len: int32(len(rec))}
	l.tailSize += int64(len(rec))
	return ref, nil
}

// decodeRecord validates a fully framed record and returns its parts.
// The payload aliases rec.
func decodeRecord(rec []byte) (kind byte, seq uint64, payload []byte, err error) {
	if len(rec) < recOverhead {
		return 0, 0, nil, fmt.Errorf("record too short (%d bytes)", len(rec))
	}
	if be32(rec[0:4]) != recMagic {
		return 0, 0, nil, fmt.Errorf("bad record magic %#x", be32(rec[0:4]))
	}
	kind = rec[4]
	seq = be64(rec[5:13])
	n := be32(rec[13:17])
	if int64(n) != int64(len(rec)-recOverhead) {
		return 0, 0, nil, fmt.Errorf("payload length %d != framed %d", n, len(rec)-recOverhead)
	}
	body := rec[4 : recHeaderLen+int(n)]
	if crc32.ChecksumIEEE(body) != be32(rec[len(rec)-recTrailerLen:]) {
		return 0, 0, nil, fmt.Errorf("record CRC mismatch")
	}
	return kind, seq, rec[recHeaderLen : recHeaderLen+int(n)], nil
}

// Sync fsyncs the tail segment: everything appended so far is durable.
//
//lint:allow deadexport the durability flush a crash matrix over the unsynced tail calls between appends
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("durlog: log closed")
	}
	if err := l.segs[len(l.segs)-1].f.Sync(); err != nil {
		return fmt.Errorf("durlog: %w", err)
	}
	return nil
}

// Close syncs the tail and closes every segment file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	if len(l.segs) > 0 {
		if err := l.segs[len(l.segs)-1].f.Sync(); err != nil && first == nil {
			first = fmt.Errorf("durlog: %w", err)
		}
	}
	for _, seg := range l.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("durlog: %w", err)
		}
	}
	return first
}

// closeAll releases partially opened segments on an Open failure.
func (l *Log) closeAll() {
	for _, seg := range l.segs {
		_ = seg.f.Close()
	}
	l.segs = nil
}

// gauge refreshes the segment-count gauge.
func (l *Log) gauge() {
	if l.metrics != nil {
		l.metrics.Gauge("durlog.segments").Set(float64(len(l.segs)))
	}
}

// be32, be64, put32, put64 are the record framing's big-endian helpers;
// the layout matches the wire format's byte order so hex dumps of
// segments and frames read the same way.
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func be64(b []byte) uint64 {
	return uint64(be32(b[0:4]))<<32 | uint64(be32(b[4:8]))
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func put64(b []byte, v uint64) {
	put32(b[0:4], uint32(v>>32))
	put32(b[4:8], uint32(v))
}
