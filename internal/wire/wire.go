// Package wire defines the binary frame format used to push becasts over a
// real network (the netcast package). One frame carries one full becast:
// control segment (invalidation report + serialization-graph delta) and
// data/overflow segments, in broadcast order, integrity-protected by a
// CRC32 trailer.
//
// Layout (all integers big-endian):
//
//	magic        uint32  "BPSH"
//	version      uint8
//	cycle        uint64
//	numCommitted uint32
//	totalItems   uint32
//	reportLen    uint32, then reportLen * { item u32, writer TxID }
//	deltaNodes   uint32, then nodes * TxID
//	deltaEdges   uint32, then edges * { from TxID, to TxID }
//	entries      uint32, then entries * { item u32, value i64, verCycle u64, writer TxID, overflow i32 }
//	overflowLen  uint32, then overflowLen * { item u32, value i64, verCycle u64, writer TxID }
//	crc32        uint32 (IEEE, over everything after the magic)
//
// TxID is { cycle u64, seq u32 }.
//
// The codec is hand-written over encoding/binary's byte-order helpers:
// Encode sizes the frame exactly from the segment counts and appends into
// one buffer; Decode parses fixed-width elements straight out of a
// *bufio.Reader's buffer (Peek/Discard), out of the caller's slice
// (DecodeBytes), or, for any other reader, one element at a time through
// a fixed array. Decode keeps two contracts that stream consumers (the
// tuner's resync, tee-based frame capture) rely on:
//
//   - it never reads past the end of a frame, so frames decode back to
//     back from one stream;
//   - it consumes exactly what a field-by-field reader would: the whole
//     frame on success, everything available on a short read, and on a
//     structural error (bad magic or version, an oversized length, an
//     overflow pointer below -1, a checksum mismatch) everything through
//     the offending element and nothing after it.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/sg"
)

const (
	// Magic identifies a frame.
	Magic = uint32(0x42505348) // "BPSH"
	// Version is the current frame version.
	Version = uint8(1)
	// MaxFrameSize bounds a frame (64 MiB), protecting decoders from
	// corrupt length fields.
	MaxFrameSize = 64 << 20
)

// ErrBadFrame is returned for malformed or corrupt frames.
var ErrBadFrame = errors.New("wire: bad frame")

// maxSegment bounds any single length field; derived from MaxFrameSize
// and the smallest element size so corrupt lengths fail fast.
const maxSegment = MaxFrameSize / 12

// initialSegmentCap caps the capacity pre-allocated for a segment before
// its elements have actually been read. A corrupt length field can claim
// up to maxSegment elements; growing by append instead of trusting the
// field keeps a damaged frame from forcing a huge allocation before the
// decode fails.
const initialSegmentCap = 4096

// segCap clamps a decoded length field to a safe pre-allocation size.
func segCap(n int) int {
	if n > initialSegmentCap {
		return initialSegmentCap
	}
	return n
}

// Element widths of the v1 layout, in bytes.
const (
	txWidth       = 8 + 4
	headerWidth   = 8 + 4 + 4 // cycle, numCommitted, totalItems (after magic and version)
	reportWidth   = 4 + txWidth
	edgeWidth     = 2 * txWidth
	oldWidth      = 4 + 8 + 8 + txWidth
	entryWidth    = oldWidth + 4
	maxElemWidth  = entryWidth
	frameOverhead = 4 + 1 + headerWidth + 5*4 + 4 // magic, version, header, five lengths, crc
)

// Encode serializes a becast into a frame.
func Encode(b *broadcast.Bcast) ([]byte, error) {
	if b == nil || len(b.Entries) == 0 {
		return nil, fmt.Errorf("%w: nil or empty becast", ErrBadFrame)
	}
	size := frameOverhead +
		len(b.Report)*reportWidth +
		len(b.Delta.Nodes)*txWidth +
		len(b.Delta.Edges)*edgeWidth +
		len(b.Entries)*entryWidth +
		len(b.Overflow)*oldWidth
	if size > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, size)
	}
	be := binary.BigEndian
	p := make([]byte, 0, size)
	p = be.AppendUint32(p, Magic)
	p = append(p, Version)
	p = be.AppendUint64(p, uint64(b.Cycle))
	p = be.AppendUint32(p, uint32(b.NumCommitted))
	p = be.AppendUint32(p, uint32(b.TotalItems))

	p = be.AppendUint32(p, uint32(len(b.Report)))
	for _, e := range b.Report {
		p = be.AppendUint32(p, uint32(e.Item))
		p = appendTx(p, e.FirstWriter)
	}
	p = be.AppendUint32(p, uint32(len(b.Delta.Nodes)))
	for _, n := range b.Delta.Nodes {
		p = appendTx(p, n)
	}
	p = be.AppendUint32(p, uint32(len(b.Delta.Edges)))
	for _, e := range b.Delta.Edges {
		p = appendTx(p, e.From)
		p = appendTx(p, e.To)
	}
	p = be.AppendUint32(p, uint32(len(b.Entries)))
	for _, e := range b.Entries {
		p = appendOld(p, e.Item, e.Version)
		p = be.AppendUint32(p, uint32(e.Overflow))
	}
	p = be.AppendUint32(p, uint32(len(b.Overflow)))
	for _, ov := range b.Overflow {
		p = appendOld(p, ov.Item, ov.Version)
	}
	return be.AppendUint32(p, crc32.ChecksumIEEE(p[4:])), nil
}

func appendTx(p []byte, t model.TxID) []byte {
	p = binary.BigEndian.AppendUint64(p, uint64(t.Cycle))
	return binary.BigEndian.AppendUint32(p, t.Seq)
}

// appendOld appends the { item, value, verCycle, writer } prefix shared by
// data entries and overflow slots.
func appendOld(p []byte, item model.ItemID, v model.Version) []byte {
	p = binary.BigEndian.AppendUint32(p, uint32(item))
	p = binary.BigEndian.AppendUint64(p, uint64(int64(v.Value)))
	p = binary.BigEndian.AppendUint64(p, uint64(v.Cycle))
	return appendTx(p, v.Writer)
}

// Decode reads one frame from r and reconstructs the becast. Decode never
// reads past the end of the frame, so frames can be decoded back to back
// from one stream. Pass a *bufio.Reader for performance: Decode then
// parses elements in place in its buffer; any other reader is read one
// element at a time. The error is io.EOF when r ends before the magic,
// io.ErrUnexpectedEOF when it ends mid-frame, a wrapped ErrBadFrame for a
// malformed or corrupt frame, including an intact frame whose contents
// broadcast.New rejects (that error is wrapped too), and otherwise the
// reader's own error. A rejected intact frame has been read to its end,
// so the next frame decodes from where it ended.
//
// Nothing derived crosses the wire: trusting state computed on the far
// side of a lossy channel would couple a subscriber's correctness to
// bytes the checksum does not cover. A decoded becast answers the report
// queries in place from its control segment, and its SG delta is checked
// on first use (broadcast.Bcast.PrimeIndex) — identical results either
// way.
//
//lint:hotpath every listener decodes every cycle it hears
func Decode(r io.Reader) (*broadcast.Bcast, error) {
	s := source{r: r}
	if br, ok := r.(*bufio.Reader); ok && br.Size() >= maxElemWidth {
		s = source{br: br}
	}
	return s.decode(nil)
}

// DecodeBytes decodes a single frame held in memory, parsing it in place
// — the fault layer's entry point for checking whether a damaged frame
// still passes the checksum, and durlog's for reading a logged cycle.
// Trailing bytes beyond the frame are ignored.
//
//lint:hotpath the fault layer and durlog's reads decode whole frames in place, per cycle
func DecodeBytes(frame []byte) (*broadcast.Bcast, error) {
	var s source
	return s.decode(frame)
}

// source is the byte source of one decode. With br set, elements are
// peeked zero-copy from its buffer; with r set, they are read one at a
// time into buf; with neither, they are sliced from the in-memory frame,
// which is passed alongside as p (never stored) and read from off.
type source struct {
	br  *bufio.Reader
	r   io.Reader
	off int
	crc uint32
	buf [maxElemWidth]byte
}

// window returns between 1 and k whole elements of width w without
// consuming them — as many as are already at hand, so a buffered source
// never blocks for bytes a later element may not need. On a short source
// it consumes what is left and returns io.EOF if that was nothing,
// io.ErrUnexpectedEOF otherwise, or the reader's own error.
func (s *source) window(p []byte, w, k int) ([]byte, error) {
	switch {
	case s.br != nil:
		m := min(k, s.br.Buffered()/w)
		b, err := s.br.Peek(max(m, 1) * w)
		if err != nil {
			n, _ := s.br.Discard(len(b))
			return nil, shortRead(n, err)
		}
		return b, nil
	case s.r != nil:
		n, err := io.ReadFull(s.r, s.buf[:w])
		if err != nil {
			return nil, shortRead(n, err)
		}
		return s.buf[:w], nil
	default:
		rest := len(p) - s.off
		if rest < w {
			s.off = len(p)
			return nil, shortRead(rest, io.EOF)
		}
		return p[s.off : s.off+min(k, rest/w)*w], nil
	}
}

// consume takes the first n bytes of the last window and folds them into
// the checksum. Discarding bytes a *bufio.Reader already holds does not
// refill its buffer, so the window stays readable until the next one.
func (s *source) consume(b []byte, n int) {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b[:n])
	switch {
	case s.br != nil:
		_, _ = s.br.Discard(n) // n bytes were just peeked
	case s.r == nil:
		s.off += n
	}
}

// element reads and consumes the next w bytes.
func (s *source) element(p []byte, w int) ([]byte, error) {
	b, err := s.window(p, w, 1)
	if err != nil {
		return nil, err
	}
	s.consume(b, w)
	return b, nil
}

// length reads a segment length field.
func (s *source) length(p []byte) (int, error) {
	b, err := s.element(p, 4)
	if err != nil {
		return 0, frameErr(err)
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxSegment {
		return 0, fmt.Errorf("%w: segment length %d", ErrBadFrame, n)
	}
	return int(n), nil
}

// segment reads a length field and then that many elements of width w,
// parsing them window by window. An element that fails to parse is
// consumed, and nothing after it.
func segment[T any](s *source, p []byte, w int, parse func(b []byte, i int) (T, error)) ([]T, error) {
	n, err := s.length(p)
	if err != nil {
		return nil, err
	}
	//lint:allow hotalloc each segment is retained by the decoded becast; the frame's content, not scratch
	out := make([]T, 0, segCap(n))
	for len(out) < n {
		b, err := s.window(p, w, n-len(out))
		if err != nil {
			return nil, frameErr(err)
		}
		for at := 0; at < len(b); at += w {
			v, err := parse(b[at:at+w], len(out))
			if err != nil {
				s.consume(b, at+w)
				return nil, err
			}
			//lint:allow hotalloc grows only past segCap's pre-allocation, for segments over 4,096 elements
			out = append(out, v)
		}
		s.consume(b, len(b))
	}
	return out, nil
}

func (s *source) decode(p []byte) (*broadcast.Bcast, error) {
	b, err := s.element(p, 4)
	if err != nil {
		return nil, err // includes io.EOF for clean stream end
	}
	if magic := binary.BigEndian.Uint32(b); magic != Magic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFrame, magic)
	}
	s.crc = 0 // everything after the magic is checksummed

	if b, err = s.element(p, 1); err != nil {
		return nil, frameErr(err)
	}
	if b[0] != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadFrame, b[0])
	}
	if b, err = s.element(p, headerWidth); err != nil {
		return nil, frameErr(err)
	}
	cycle := model.Cycle(binary.BigEndian.Uint64(b))
	committed := binary.BigEndian.Uint32(b[8:])
	totalItems := binary.BigEndian.Uint32(b[12:])
	if totalItems > maxSegment {
		return nil, fmt.Errorf("%w: totalItems %d", ErrBadFrame, totalItems)
	}

	report, err := segment(s, p, reportWidth, parseReport)
	if err != nil {
		return nil, err
	}
	delta := sg.Delta{Cycle: cycle}
	if delta.Nodes, err = segment(s, p, txWidth, parseNode); err != nil {
		return nil, err
	}
	if delta.Edges, err = segment(s, p, edgeWidth, parseEdge); err != nil {
		return nil, err
	}
	entries, err := segment(s, p, entryWidth, parseEntry)
	if err != nil {
		return nil, err
	}
	overflow, err := segment(s, p, oldWidth, parseOld)
	if err != nil {
		return nil, err
	}

	want := s.crc
	if b, err = s.element(p, 4); err != nil {
		return nil, frameErr(err)
	}
	if got := binary.BigEndian.Uint32(b); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch %#x != %#x", ErrBadFrame, got, want)
	}
	bc, err := broadcast.New(cycle, report, delta, entries, overflow, int(committed), int(totalItems))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return bc, nil
}

func txAt(b []byte) model.TxID {
	return model.TxID{Cycle: model.Cycle(binary.BigEndian.Uint64(b)), Seq: binary.BigEndian.Uint32(b[8:])}
}

// versionAt parses the { value, verCycle, writer } run after an item.
func versionAt(b []byte) model.Version {
	return model.Version{
		Value:  model.Value(int64(binary.BigEndian.Uint64(b))),
		Cycle:  model.Cycle(binary.BigEndian.Uint64(b[8:])),
		Writer: txAt(b[16:]),
	}
}

func parseReport(b []byte, _ int) (broadcast.InvalidationEntry, error) {
	return broadcast.InvalidationEntry{Item: model.ItemID(binary.BigEndian.Uint32(b)), FirstWriter: txAt(b[4:])}, nil
}

func parseNode(b []byte, _ int) (model.TxID, error) { return txAt(b), nil }

func parseEdge(b []byte, _ int) (sg.Edge, error) {
	return sg.Edge{From: txAt(b), To: txAt(b[txWidth:])}, nil
}

func parseEntry(b []byte, i int) (broadcast.Entry, error) {
	overflow := int32(binary.BigEndian.Uint32(b[oldWidth:]))
	if overflow < -1 {
		return broadcast.Entry{}, fmt.Errorf("%w: entry %d overflow pointer %d", ErrBadFrame, i, overflow)
	}
	return broadcast.Entry{Item: model.ItemID(binary.BigEndian.Uint32(b)), Overflow: overflow, Version: versionAt(b[4:])}, nil
}

func parseOld(b []byte, _ int) (broadcast.OldVersion, error) {
	return broadcast.OldVersion{Item: model.ItemID(binary.BigEndian.Uint32(b)), Version: versionAt(b[4:])}, nil
}

// shortRead classifies a read that stopped after n of the wanted bytes the
// way io.ReadFull does: io.EOF only when nothing was read.
func shortRead(n int, err error) error {
	if err == io.EOF && n > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameErr maps a mid-frame EOF to ErrUnexpectedEOF so clean end-of-stream
// (EOF before the magic) stays distinguishable.
func frameErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
