package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/sg"
)

// randomBcast draws a becast exercising every part of the v1 layout: any
// D, an optional strictly ascending report, an optional delta, overflow
// groups of 0..3 old versions, and one of four programs — flat, shuffled,
// broadcast-disk (hot items repeated, sharing one overflow group) or an
// h-interval chunk whose TotalItems exceeds the items on air.
func randomBcast(t *testing.T, rng *rand.Rand) *broadcast.Bcast {
	t.Helper()
	d := 1 + rng.Intn(120)
	items := make([]model.ItemID, d)
	for i := range items {
		items[i] = model.ItemID(i + 1)
	}
	totalItems := 0 // New then assumes a complete becast
	switch rng.Intn(4) {
	case 1:
		rng.Shuffle(d, func(i, j int) { items[i], items[j] = items[j], items[i] })
	case 2:
		for r := 1 + rng.Intn(d); r > 0; r-- {
			at := rng.Intn(len(items) + 1)
			items = append(items[:at], append([]model.ItemID{items[rng.Intn(d)]}, items[at:]...)...)
		}
	case 3:
		lo := rng.Intn(d)
		items = items[lo : lo+1+rng.Intn(d-lo)]
		totalItems = d + rng.Intn(3)
	}
	tx := func() model.TxID { return model.TxID{Cycle: model.Cycle(rng.Uint64()), Seq: rng.Uint32()} }
	version := func() model.Version {
		return model.Version{Value: model.Value(rng.Uint64()), Cycle: model.Cycle(rng.Uint64()), Writer: tx()}
	}
	var overflow []broadcast.OldVersion
	group := map[model.ItemID]int{}
	entries := make([]broadcast.Entry, len(items))
	for i, item := range items {
		off, ok := group[item]
		if !ok {
			off = -1
			if k := rng.Intn(4); k > 0 {
				off = len(overflow)
				for ; k > 0; k-- {
					overflow = append(overflow, broadcast.OldVersion{Item: item, Version: version()})
				}
			}
			group[item] = off
		}
		entries[i] = broadcast.Entry{Item: item, Overflow: int32(off), Version: version()}
	}
	// A report is strictly ascending by item, as every producer airs it
	// (broadcast.New rejects any other).
	reported := rng.Perm(d)[:rng.Intn(d+1)]
	slices.Sort(reported)
	var report []broadcast.InvalidationEntry
	for _, i := range reported {
		report = append(report, broadcast.InvalidationEntry{Item: model.ItemID(1 + i), FirstWriter: tx()})
	}
	// The delta is of the becast's cycle, as every producer airs it
	// (broadcast.New rejects any other).
	cycle := model.Cycle(rng.Uint64())
	delta := sg.Delta{Cycle: cycle}
	for n := rng.Intn(20); n > 0; n-- {
		delta.Nodes = append(delta.Nodes, tx())
	}
	for n := rng.Intn(30); n > 0; n-- {
		delta.Edges = append(delta.Edges, sg.Edge{From: tx(), To: tx()})
	}
	b, err := broadcast.New(cycle, report, delta, entries, overflow, rng.Intn(1000), totalItems)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCodecDifferential pins the rewrite against the reflection codec it
// replaced: on random becasts covering every segment, Encode is byte-for-
// byte oldEncode, and the frame — intact, truncated, or with a byte
// flipped — decodes identically on every byte source.
func TestCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 500; i++ {
		b := randomBcast(t, rng)
		got, err := Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oldEncode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("becast %d: Encode differs from the reflection codec", i)
		}
		checkDecodersAgree(t, got, got)
		checkDecodersAgree(t, got[:rng.Intn(len(got))], got)
		flipped := append([]byte(nil), got...)
		flipped[rng.Intn(len(flipped))] ^= byte(1 + rng.Intn(255))
		checkDecodersAgree(t, flipped, got)
	}
}

// FuzzCodecDifferential feeds arbitrary bytes to the new and old decoders
// on all three byte sources. They must agree on the becast, the error and
// the bytes consumed; a frame both accept must re-encode identically.
func FuzzCodecDifferential(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	frames := corruptionFrames(f)
	for _, d := range corruptionSeeds {
		f.Add(d.apply(frames))
	}
	for _, frame := range frames {
		f.Add(frame)
	}
	tail := frames[len(frames)-1]
	f.Fuzz(func(t *testing.T, data []byte) {
		if b := checkDecodersAgree(t, data, tail); b != nil {
			got, err := Encode(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oldEncode(b)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("re-encoding differs from the reflection codec (old err %v)", err)
			}
		}
	})
}

// checkDecodersAgree decodes data with Decode and oldDecode from each byte
// source and fails unless both return the same becast, the same error
// and, for stream sources, leave the reader at the same offset. On a
// *bufio.Reader an intact frame (tail) follows data, so a decoder that
// read past its frame would show. It returns the decoded becast, or nil.
func checkDecodersAgree(t *testing.T, data, tail []byte) *broadcast.Bcast {
	t.Helper()
	stream := append(append([]byte(nil), data...), tail...)
	// 16 bytes is smaller than an entry, so Decode falls back to
	// element-at-a-time reads; 40 forces a refill for nearly every entry.
	for _, size := range []int{16, 40, 4096} {
		decode := func(dec func(io.Reader) (*broadcast.Bcast, error)) decoded {
			r := bytes.NewReader(stream)
			br := bufio.NewReaderSize(r, size)
			b, err := dec(br)
			return decoded{b, err, len(stream) - r.Len() - br.Buffered()}
		}
		sameDecode(t, "bufio", decode(Decode), decode(oldDecode))
	}
	plain := func(wrap func(io.Reader) io.Reader) func(func(io.Reader) (*broadcast.Bcast, error)) decoded {
		return func(dec func(io.Reader) (*broadcast.Bcast, error)) decoded {
			r := bytes.NewReader(data)
			b, err := dec(wrap(r))
			return decoded{b, err, len(data) - r.Len()}
		}
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"reader":   func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
	} {
		decode := plain(wrap)
		sameDecode(t, name, decode(Decode), decode(oldDecode))
	}
	b, err := DecodeBytes(data)
	want := plain(func(r io.Reader) io.Reader { return r })(oldDecode)
	sameDecode(t, "bytes", decoded{b, err, want.consumed}, want)
	return b
}

type decoded struct {
	b        *broadcast.Bcast
	err      error
	consumed int
}

func sameDecode(t *testing.T, source string, got, want decoded) {
	t.Helper()
	if errText(got.err) != errText(want.err) {
		t.Fatalf("%s: error %q, reflection codec %q", source, errText(got.err), errText(want.err))
	}
	for _, class := range []error{io.EOF, io.ErrUnexpectedEOF, ErrBadFrame} {
		if errors.Is(got.err, class) != errors.Is(want.err, class) {
			t.Fatalf("%s: error %v and %v differ in class %v", source, got.err, want.err, class)
		}
	}
	if got.consumed != want.consumed {
		t.Fatalf("%s: consumed %d bytes, reflection codec %d (err %v)", source, got.consumed, want.consumed, got.err)
	}
	if want.err != nil {
		return
	}
	if !reflect.DeepEqual(got.b, want.b) {
		t.Fatalf("%s: decoded becasts differ", source)
	}
	for slot, e := range want.b.Entries {
		for _, pos := range []int{0, slot, slot + 1} {
			if g, w := got.b.NextPosition(e.Item, pos), want.b.NextPosition(e.Item, pos); g != w {
				t.Fatalf("%s: NextPosition(%v, %d) = %d, want %d", source, e.Item, pos, g, w)
			}
		}
		if got.b.Position(e.Item) != want.b.Position(e.Item) {
			t.Fatalf("%s: Position(%v) differs", source, e.Item)
		}
		if !reflect.DeepEqual(got.b.OldVersionsOf(e.Item), want.b.OldVersionsOf(e.Item)) {
			t.Fatalf("%s: OldVersionsOf(%v) differs", source, e.Item)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
