package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sg"
)

// buildBcast assembles a realistic becast via the server.
func buildBcast(t *testing.T) *broadcast.Bcast {
	t.Helper()
	srv, err := server.New(server.Config{DBSize: 12, MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	rw := func(items ...model.ItemID) model.ServerTx {
		var ops []model.Op
		for _, it := range items {
			ops = append(ops, model.Op{Kind: model.OpRead, Item: it}, model.Op{Kind: model.OpWrite, Item: it})
		}
		return model.ServerTx{Ops: ops}
	}
	if _, err := srv.CommitAndAdvance([]model.ServerTx{rw(2), rw(5, 7)}); err != nil {
		t.Fatal(err)
	}
	log, err := srv.CommitAndAdvance([]model.ServerTx{rw(2, 9), rw(5)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, log, broadcast.FlatProgram(12))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != b.Cycle || got.NumCommitted != b.NumCommitted {
		t.Errorf("header mismatch: %v/%d vs %v/%d", got.Cycle, got.NumCommitted, b.Cycle, b.NumCommitted)
	}
	if !reflect.DeepEqual(got.Report, b.Report) {
		t.Errorf("report mismatch:\n got %+v\nwant %+v", got.Report, b.Report)
	}
	if !reflect.DeepEqual(got.Entries, b.Entries) {
		t.Error("entries mismatch")
	}
	if !reflect.DeepEqual(got.Overflow, b.Overflow) {
		t.Errorf("overflow mismatch:\n got %+v\nwant %+v", got.Overflow, b.Overflow)
	}
	if !reflect.DeepEqual(got.Delta, b.Delta) {
		t.Errorf("delta mismatch:\n got %+v\nwant %+v", got.Delta, b.Delta)
	}
	// Behavioral equivalence: positions and overflow chains survive.
	for i := 1; i <= 12; i++ {
		id := model.ItemID(i)
		if got.Position(id) != b.Position(id) {
			t.Errorf("position of %v differs", id)
		}
		if !reflect.DeepEqual(got.OldVersionsOf(id), b.OldVersionsOf(id)) {
			t.Errorf("old versions of %v differ", id)
		}
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	stream.Write(frame)
	stream.Write(frame)
	r := bytes.NewReader(stream.Bytes())
	for i := 0; i < 2; i++ {
		if _, err := Decode(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := Decode(r); !errors.Is(err, io.EOF) {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = 99 // version byte
	if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte after the magic, one at a time: version, header,
	// length fields, elements and the checksum itself. Where the damage
	// leaves the layout intact, CRC-32 catches it (it detects every burst
	// of up to 32 bits); where it hits the version or a length, the
	// structure checks or the now misaligned checksum must.
	for idx := 4; idx < len(frame); idx++ {
		mut := append([]byte(nil), frame...)
		mut[idx] ^= 0xff
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Errorf("flipped byte %d of %d decoded without error", idx, len(frame))
		}
	}
}

func TestDecodeTruncatedFrame(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 20, len(frame) / 2, len(frame) - 2} {
		if _, err := Decode(bytes.NewReader(frame[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeRejectsHugeSegment(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x42, 0x50, 0x53, 0x48}) // magic
	buf.WriteByte(Version)
	buf.Write(make([]byte, 16))               // cycle + committed + totalItems
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // absurd report length
	if _, err := Decode(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame for huge segment", err)
	}
}

func TestEncodeRejectsEmpty(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

func TestRoundTripEmptyControl(t *testing.T) {
	// Cycle-1 becast: no report, no delta, no overflow.
	srv, err := server.New(server.Config{DBSize: 4, MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Report) != 0 || len(got.Overflow) != 0 || len(got.Delta.Nodes) != 0 {
		t.Errorf("empty control segments not preserved: %+v", got)
	}
}

func TestBroadcastNewValidation(t *testing.T) {
	if _, err := broadcast.New(1, nil, sg.Delta{}, nil, nil, 0, 0); err == nil {
		t.Error("empty entries accepted")
	}
	entries := []broadcast.Entry{{Item: 1, Overflow: 5}}
	if _, err := broadcast.New(1, nil, sg.Delta{}, entries, nil, 0, 0); err == nil {
		t.Error("out-of-range overflow pointer accepted")
	}
}

// TestDecodeRejectsUnsortedReport pins the decoder against a report no
// producer airs: a frame whose CRC holds but whose report is out of item
// order or repeats an item decodes to broadcast.New's error, wrapped as
// ErrBadFrame, on every byte source, never to a becast whose report
// searches would answer wrongly.
func TestDecodeRejectsUnsortedReport(t *testing.T) {
	for name, mangle := range map[string]func(r []broadcast.InvalidationEntry){
		"swapped":  func(r []broadcast.InvalidationEntry) { r[0], r[2] = r[2], r[0] },
		"repeated": func(r []broadcast.InvalidationEntry) { r[2] = r[1] },
	} {
		b := buildBcast(t)
		if len(b.Report) < 3 {
			t.Fatalf("fixture report %v too short", b.Report)
		}
		mangle(b.Report)
		frame, err := Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		decoders := map[string]func() (*broadcast.Bcast, error){
			"DecodeBytes":  func() (*broadcast.Bcast, error) { return DecodeBytes(frame) },
			"Decode/bufio": func() (*broadcast.Bcast, error) { return Decode(bufio.NewReader(bytes.NewReader(frame))) },
			"Decode/plain": func() (*broadcast.Bcast, error) { return Decode(bytes.NewReader(frame)) },
		}
		for dname, decode := range decoders {
			got, err := decode()
			if err == nil {
				t.Errorf("%s: %s decoded report %v without error", name, dname, got.Report)
				continue
			}
			if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "broadcast: report") {
				t.Errorf("%s: %s error %q, want broadcast.New's report rejection as ErrBadFrame", name, dname, err)
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	srv, err := server.New(server.Config{DBSize: 1000, MaxVersions: 3})
	if err != nil {
		b.Fatal(err)
	}
	bc, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(1000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(bc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	srv, err := server.New(server.Config{DBSize: 1000, MaxVersions: 3})
	if err != nil {
		b.Fatal(err)
	}
	bc, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(1000))
	if err != nil {
		b.Fatal(err)
	}
	frame, err := Encode(bc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodedBecastCarriesNoIndex pins the frame format's scope: the
// checked SG delta PrimeIndex keeps is derived state and never crosses
// the wire. A primed becast encodes to the same bytes as an unprimed one,
// and the decoded becast answers the report queries from the content the
// checksum covers.
func TestDecodedBecastCarriesNoIndex(t *testing.T) {
	b := buildBcast(t)
	unprimed, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PrimeIndex(); err != nil {
		t.Fatal(err)
	}
	primed, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unprimed, primed) {
		t.Error("priming the becast changed the encoded frame")
	}
	got, err := DecodeBytes(primed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range b.Report {
		if w, ok := got.FirstWriter(e.Item); !ok || w != e.FirstWriter {
			t.Errorf("decoded FirstWriter(%v) = %v, %v, want %v", e.Item, w, ok, e.FirstWriter)
		}
	}
}

// pinFrame encodes a D-item becast with a report, a delta and overflow
// versions.
func pinFrame(t *testing.T, d int) []byte {
	t.Helper()
	srv, err := server.New(server.Config{DBSize: d, MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	var log *server.CycleLog
	for c := 0; c < 3; c++ {
		var txs []model.ServerTx
		for item := 1 + c; item <= d; item += 7 {
			id := model.ItemID(item)
			txs = append(txs, model.ServerTx{Ops: []model.Op{{Kind: model.OpRead, Item: id}, {Kind: model.OpWrite, Item: id}}})
		}
		if log, err = srv.CommitAndAdvance(txs); err != nil {
			t.Fatal(err)
		}
	}
	b, err := broadcast.Assemble(srv, log, broadcast.FlatProgram(d))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCodecAllocations pins the codec's allocation counts so a return to
// per-field allocation cannot land silently: Encode allocates only the
// frame, and Decode of a flat becast allocates the five segment slices and
// the becast, the same count whatever D is (slot positions are arithmetic,
// so no map or slot array grows with the data segment).
func TestCodecAllocations(t *testing.T) {
	frame := pinFrame(t, 1000)
	b, err := DecodeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := Encode(b); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Encode allocates %v objects, want 1", n)
	}

	decodeAllocs := func(frame []byte) (buffered, inPlace float64) {
		r := bytes.NewReader(frame)
		br := bufio.NewReaderSize(r, 1<<16)
		buffered = testing.AllocsPerRun(10, func() {
			r.Reset(frame)
			br.Reset(r)
			if _, err := Decode(br); err != nil {
				t.Fatal(err)
			}
		})
		inPlace = testing.AllocsPerRun(10, func() {
			if _, err := DecodeBytes(frame); err != nil {
				t.Fatal(err)
			}
		})
		return buffered, inPlace
	}
	const want = 6 // report, nodes, edges, entries, overflow, becast
	small, smallBytes := decodeAllocs(frame)
	large, largeBytes := decodeAllocs(pinFrame(t, 4000))
	t.Logf("Decode allocs: D=1000 %v buffered, %v in place; D=4000 %v / %v", small, smallBytes, large, largeBytes)
	for _, n := range []float64{small, smallBytes, large, largeBytes} {
		if n != want {
			t.Errorf("Decode allocates %v / %v objects at D=1000 and %v / %v at D=4000 (buffered / in place), want %d each",
				small, smallBytes, large, largeBytes, want)
			break
		}
	}
}

// TestDecodeBytesPerCall pins what one decode costs in bytes, which is
// what the collector pays for: DecodeBytes of the D = 1,000 pin frame
// allocates its segment slices and the becast, plus at most 1 KiB per
// object of size-class rounding, and nothing else.
func TestDecodeBytesPerCall(t *testing.T) {
	frame := pinFrame(t, 1000)
	b, err := DecodeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	payload := uintptr(cap(b.Report))*unsafe.Sizeof(broadcast.InvalidationEntry{}) +
		uintptr(cap(b.Delta.Nodes))*unsafe.Sizeof(model.TxID{}) +
		uintptr(cap(b.Delta.Edges))*unsafe.Sizeof(sg.Edge{}) +
		uintptr(cap(b.Entries))*unsafe.Sizeof(broadcast.Entry{}) +
		uintptr(cap(b.Overflow))*unsafe.Sizeof(broadcast.OldVersion{}) +
		unsafe.Sizeof(broadcast.Bcast{})
	limit := uint64(payload) + 6<<10
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecodeBytes(frame); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("DecodeBytes D=1000: %d bytes per call, payload %d, limit %d", per, payload, limit)
	if per > limit {
		t.Errorf("DecodeBytes allocates %d bytes per call, want <= %d (segments and becast %d + 6 KiB)", per, limit, payload)
	}
}
