package wire

import (
	"bytes"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/server"
)

// FuzzDecode drives the frame decoder with arbitrary bytes: it must never
// panic and never allocate absurdly, only return errors or valid becasts.
// Valid frames are seeded so mutation explores deep into the format.
func FuzzDecode(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded frame must round-trip.
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		got2, err := Decode(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if got2.Cycle != got.Cycle || len(got2.Entries) != len(got.Entries) {
			t.Fatal("round-trip changed the frame")
		}
	})
}

// FuzzFrameCorruption models the fault injector's damage on real encoded
// frames: XOR a byte somewhere, then cut the frame at some length. Unlike
// FuzzDecode's arbitrary bytes, every input here is one mutation away from
// a valid frame — the adversarial neighborhood the checksum must police.
// Decode must either reject the damage or return a frame whose re-encoding
// is byte-identical to what it read (the flips cancelled out); silently
// decoding different bytes into data would hand garbage to a scheme.
func FuzzFrameCorruption(f *testing.F) {
	frames := corruptionFrames(f)
	for _, d := range corruptionSeeds {
		f.Add(d.which, d.pos, d.mask, d.cut)
	}
	f.Fuzz(func(t *testing.T, which uint8, pos uint32, mask uint8, cut uint32) {
		damaged := damage{which, pos, mask, cut}.apply(frames)
		got, err := Decode(bytes.NewReader(damaged))
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("accepted damaged frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, damaged[:len(re)]) {
			t.Fatalf("decode accepted damaged bytes as different data (mask %#x at %d, cut %d)",
				mask, pos, cut)
		}
	})
}

// decodeSeeds is FuzzDecode's seed corpus: a valid frame, an empty
// stream, a bare magic, and a header claiming an absurd segment length.
func decodeSeeds(tb testing.TB) [][]byte {
	srv, err := server.New(server.Config{DBSize: 8, MaxVersions: 2})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(8))
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := Encode(b)
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		frame,
		{},
		{0x42, 0x50, 0x53, 0x48},
		append(frame[:20:20], 0xff, 0xff, 0xff, 0xff),
	}
}

// corruptionFrames encodes the three consecutive cycles FuzzFrameCorruption
// damages: the first has no control segment, the later ones carry a
// report, a delta and overflow versions.
func corruptionFrames(tb testing.TB) [][]byte {
	srv, err := server.New(server.Config{DBSize: 16, MaxVersions: 3})
	if err != nil {
		tb.Fatal(err)
	}
	prog := broadcast.FlatProgram(16)
	var frames [][]byte
	var log *server.CycleLog
	for i := 0; i < 3; i++ {
		b, err := broadcast.Assemble(srv, log, prog)
		if err != nil {
			tb.Fatal(err)
		}
		frame, err := Encode(b)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, frame)
		item := model.ItemID(i*3 + 1)
		log, err = srv.CommitAndAdvance([]model.ServerTx{{Ops: []model.Op{
			{Kind: model.OpRead, Item: item},
			{Kind: model.OpWrite, Item: item},
		}}})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return frames
}

// damage is one fault-injector mutation: XOR mask into the byte at pos of
// frame which, then cut the frame to cut bytes.
type damage struct {
	which uint8
	pos   uint32
	mask  uint8
	cut   uint32
}

// corruptionSeeds is FuzzFrameCorruption's seed corpus.
var corruptionSeeds = []damage{
	{0, 5, 0xff, 0},
	{1, 0, 0x01, 8},
	{2, 100, 0x80, 50},
}

func (d damage) apply(frames [][]byte) []byte {
	frame := frames[int(d.which)%len(frames)]
	damaged := append([]byte(nil), frame...)
	damaged[int(d.pos)%len(damaged)] ^= d.mask
	if n := int(d.cut) % (len(damaged) + 1); n < len(damaged) {
		damaged = damaged[:n]
	}
	return damaged
}
