package wire

// The reflection-based v1 codec that Encode and Decode replaced, kept
// verbatim (renamed) as the differential oracle: every field goes through
// encoding/binary's Write/Read with an interface argument. The new codec
// must produce byte-identical frames and, on any input, the same becast,
// the same error and the same number of bytes consumed.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/sg"
)

// oldEncode serializes a becast into a frame.
func oldEncode(b *broadcast.Bcast) ([]byte, error) {
	if b == nil || len(b.Entries) == 0 {
		return nil, fmt.Errorf("%w: nil or empty becast", ErrBadFrame)
	}
	var buf bytes.Buffer
	w := func(v any) {
		// bytes.Buffer writes cannot fail.
		_ = binary.Write(&buf, binary.BigEndian, v)
	}
	writeTx := func(t model.TxID) {
		w(uint64(t.Cycle))
		w(t.Seq)
	}
	w(Magic)
	w(Version)
	w(uint64(b.Cycle))
	w(uint32(b.NumCommitted))
	w(uint32(b.TotalItems))

	w(uint32(len(b.Report)))
	for _, e := range b.Report {
		w(uint32(e.Item))
		writeTx(e.FirstWriter)
	}
	w(uint32(len(b.Delta.Nodes)))
	for _, n := range b.Delta.Nodes {
		writeTx(n)
	}
	w(uint32(len(b.Delta.Edges)))
	for _, e := range b.Delta.Edges {
		writeTx(e.From)
		writeTx(e.To)
	}
	w(uint32(len(b.Entries)))
	for _, e := range b.Entries {
		w(uint32(e.Item))
		w(int64(e.Version.Value))
		w(uint64(e.Version.Cycle))
		writeTx(e.Version.Writer)
		w(e.Overflow)
	}
	w(uint32(len(b.Overflow)))
	for _, ov := range b.Overflow {
		w(uint32(ov.Item))
		w(int64(ov.Version.Value))
		w(uint64(ov.Version.Cycle))
		writeTx(ov.Version.Writer)
	}
	sum := crc32.ChecksumIEEE(buf.Bytes()[4:])
	w(sum)
	if buf.Len() > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, buf.Len())
	}
	return buf.Bytes(), nil
}

// oldDecode reads one frame from r and reconstructs the becast. Decode never
// reads past the end of the frame, so frames can be decoded back to back
// from one stream; pass a *bufio.Reader for performance (Decode issues
// many small reads).
//
// Nothing derived crosses the wire: a decoded becast carries only what
// the frame's checksummed bytes say.
func oldDecode(r io.Reader) (*broadcast.Bcast, error) {
	br := r
	var magic uint32
	if err := binary.Read(br, binary.BigEndian, &magic); err != nil {
		return nil, err // includes io.EOF for clean stream end
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFrame, magic)
	}

	// Everything after the magic is checksummed; tee it.
	sum := crc32.NewIEEE()
	tr := io.TeeReader(br, sum)
	rd := func(v any) error { return binary.Read(tr, binary.BigEndian, v) }
	readTx := func() (model.TxID, error) {
		var c uint64
		var s uint32
		if err := rd(&c); err != nil {
			return model.TxID{}, err
		}
		if err := rd(&s); err != nil {
			return model.TxID{}, err
		}
		return model.TxID{Cycle: model.Cycle(c), Seq: s}, nil
	}
	readLen := func() (int, error) {
		var n uint32
		if err := rd(&n); err != nil {
			return 0, err
		}
		if n > maxSegment {
			return 0, fmt.Errorf("%w: segment length %d", ErrBadFrame, n)
		}
		return int(n), nil
	}

	var version uint8
	if err := rd(&version); err != nil {
		return nil, frameErr(err)
	}
	if version != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadFrame, version)
	}
	var cycle uint64
	var committed, totalItems uint32
	if err := rd(&cycle); err != nil {
		return nil, frameErr(err)
	}
	if err := rd(&committed); err != nil {
		return nil, frameErr(err)
	}
	if err := rd(&totalItems); err != nil {
		return nil, frameErr(err)
	}
	if totalItems > maxSegment {
		return nil, fmt.Errorf("%w: totalItems %d", ErrBadFrame, totalItems)
	}

	n, err := readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	report := make([]broadcast.InvalidationEntry, 0, segCap(n))
	for i := 0; i < n; i++ {
		var item uint32
		if err := rd(&item); err != nil {
			return nil, frameErr(err)
		}
		tx, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		report = append(report, broadcast.InvalidationEntry{Item: model.ItemID(item), FirstWriter: tx})
	}

	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	delta := sg.Delta{Cycle: model.Cycle(cycle), Nodes: make([]model.TxID, 0, segCap(n))}
	for i := 0; i < n; i++ {
		tx, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		delta.Nodes = append(delta.Nodes, tx)
	}
	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	delta.Edges = make([]sg.Edge, 0, segCap(n))
	for i := 0; i < n; i++ {
		from, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		to, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		delta.Edges = append(delta.Edges, sg.Edge{From: from, To: to})
	}

	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	entries := make([]broadcast.Entry, 0, segCap(n))
	for i := 0; i < n; i++ {
		var item uint32
		var value int64
		var verCycle uint64
		var overflow int32
		if err := rd(&item); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&value); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&verCycle); err != nil {
			return nil, frameErr(err)
		}
		writer, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&overflow); err != nil {
			return nil, frameErr(err)
		}
		if overflow < -1 {
			return nil, fmt.Errorf("%w: entry %d overflow pointer %d", ErrBadFrame, i, overflow)
		}
		entries = append(entries, broadcast.Entry{
			Item: model.ItemID(item),
			Version: model.Version{
				Value: model.Value(value), Cycle: model.Cycle(verCycle), Writer: writer,
			},
			Overflow: overflow,
		})
	}

	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	overflow := make([]broadcast.OldVersion, 0, segCap(n))
	for i := 0; i < n; i++ {
		var item uint32
		var value int64
		var verCycle uint64
		if err := rd(&item); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&value); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&verCycle); err != nil {
			return nil, frameErr(err)
		}
		writer, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		overflow = append(overflow, broadcast.OldVersion{
			Item: model.ItemID(item),
			Version: model.Version{
				Value: model.Value(value), Cycle: model.Cycle(verCycle), Writer: writer,
			},
		})
	}

	want := sum.Sum32()
	var got uint32
	if err := binary.Read(br, binary.BigEndian, &got); err != nil {
		return nil, frameErr(err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch %#x != %#x", ErrBadFrame, got, want)
	}
	return broadcast.New(model.Cycle(cycle), report, delta, entries, overflow, int(committed), int(totalItems))
}
