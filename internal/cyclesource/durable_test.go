package cyclesource

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/core"
	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/wire"
)

// durableConfig is testConfig plus a disk log in dir.
func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.LogDir = dir
	return cfg
}

// frames drives a source through its first n cycles and returns each
// becast's encoded frame bytes.
func frames(t *testing.T, src *Source, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		b, err := src.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = mustEncode(t, b)
	}
	return out
}

// TestDurableRestartEquivalence is the producer half of the
// restart-equivalence contract: a source stopped after k cycles and
// reopened over the same directory must emit (a) byte-identical becasts
// for the whole stream and (b) a producer trace whose concatenation
// across the restart equals the uninterrupted trace. Both the
// replay-from-zero and the snapshot-resume paths are pinned.
func TestDurableRestartEquivalence(t *testing.T) {
	const total, stop = 20, 8
	for _, tc := range []struct {
		name      string
		snapEvery int
	}{
		{"replay-from-zero", -1},
		{"snapshot-resume", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference (memory only, same seed).
			var uTrace bytes.Buffer
			uRec := obs.NewJSONL(&uTrace)
			uCfg := testConfig()
			uCfg.Recorder = uRec
			uSrc, err := New(uCfg)
			if err != nil {
				t.Fatal(err)
			}
			want := frames(t, uSrc, total)
			if err := uRec.Err(); err != nil {
				t.Fatal(err)
			}

			// Interrupted run: phase 1 produces `stop` cycles, closes.
			dir := t.TempDir()
			var trace1 bytes.Buffer
			rec1 := obs.NewJSONL(&trace1)
			cfg1 := durableConfig(dir)
			cfg1.SnapshotEvery = tc.snapEvery
			cfg1.Recorder = rec1
			src1, err := New(cfg1)
			if err != nil {
				t.Fatal(err)
			}
			got1 := frames(t, src1, stop)
			if err := src1.Close(); err != nil {
				t.Fatal(err)
			}
			if err := rec1.Err(); err != nil {
				t.Fatal(err)
			}

			// Phase 2 reopens the directory and continues to `total`.
			var trace2 bytes.Buffer
			rec2 := obs.NewJSONL(&trace2)
			cfg2 := durableConfig(dir)
			cfg2.SnapshotEvery = tc.snapEvery
			cfg2.Recorder = rec2
			src2, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = src2.Close() }()
			if got := src2.Produced(); got != stop {
				t.Fatalf("resumed Produced() = %d, want %d", got, stop)
			}
			got2 := frames(t, src2, total)
			if err := rec2.Err(); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < stop; i++ {
				if !bytes.Equal(got1[i], want[i]) {
					t.Fatalf("phase-1 cycle %d differs from uninterrupted run", i)
				}
			}
			for i := 0; i < total; i++ {
				if !bytes.Equal(got2[i], want[i]) {
					t.Fatalf("post-restart cycle %d differs from uninterrupted run", i)
				}
			}
			joined := append(append([]byte(nil), trace1.Bytes()...), trace2.Bytes()...)
			if !bytes.Equal(joined, uTrace.Bytes()) {
				t.Fatal("concatenated producer traces differ from the uninterrupted trace")
			}
		})
	}
}

// TestSpillTransparency pins that a bounded in-memory window changes
// nothing a consumer can observe: every becast served — from memory or
// decoded back off the disk log — is byte-identical to the unbounded
// run, and the window really is bounded.
func TestSpillTransparency(t *testing.T) {
	const total, window = 20, 4
	uSrc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := frames(t, uSrc, total)

	cfg := durableConfig(t.TempDir())
	cfg.MemCycles = window
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	// Drive production to the end first, then re-read everything: the
	// early cycles have left the window by then.
	if _, err := src.Get(total - 1); err != nil {
		t.Fatal(err)
	}
	if len(src.log) > window {
		t.Fatalf("in-memory window holds %d cycles, bound is %d", len(src.log), window)
	}
	if src.base != total-window {
		t.Fatalf("window base = %d, want %d", src.base, total-window)
	}
	got := frames(t, src, total)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("cycle %d served from the spilled window differs", i)
		}
	}
	// The same index remains readable repeatedly (disk reads are
	// stateless), and Produced counts spilled cycles.
	if got := src.Produced(); got != total {
		t.Fatalf("Produced() = %d, want %d", got, total)
	}
}

// TestGetFrameMatchesEncode pins both sources of GetFrame's bytes
// against a fresh wire.Encode of the same becast over 300 cycles: the
// logged frame a durable source keeps for its newest cycle (returned
// again, not re-encoded, by a second call), and the fallback encode for
// a cycle still in the window, one spilled to disk, and every cycle of a
// memory-only source.
func TestGetFrameMatchesEncode(t *testing.T) {
	const total = 300
	durable := durableConfig(t.TempDir())
	durable.MemCycles = 8
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"durable", durable},
		{"memory", testConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = src.Close() }()
			check := func(i int) []byte {
				t.Helper()
				_, frame, err := src.GetFrame(i)
				if err != nil {
					t.Fatal(err)
				}
				b, err := src.Get(i)
				if err != nil {
					t.Fatal(err)
				}
				if want := mustEncode(t, b); !bytes.Equal(frame, want) {
					t.Fatalf("cycle %d: GetFrame differs from wire.Encode(Get)", i)
				}
				return frame
			}
			for i := 0; i < total; i++ {
				frame := check(i) // i is the newest cycle
				if tc.cfg.LogDir == "" {
					continue
				}
				_, again, err := src.GetFrame(i)
				if err != nil {
					t.Fatal(err)
				}
				if &again[0] != &frame[0] {
					t.Fatalf("cycle %d: newest durable cycle re-encoded instead of returning the logged frame", i)
				}
			}
			// Production has moved on: now every cycle but the last is
			// either an older in-window cycle or a spilled one.
			for i := 0; i < total; i++ {
				check(i)
			}
		})
	}
}

func mustEncode(t *testing.T, b *broadcast.Bcast) []byte {
	t.Helper()
	p, err := wire.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotCatchUpFeed pins the late-joiner path of ISSUE 10: a Feed
// positioned at cycle K over a snapshot-resumed source sees exactly the
// same becasts as one over a replay-from-zero resume and as a fresh
// in-memory source.
func TestSnapshotCatchUpFeed(t *testing.T) {
	const total, stop, at = 16, 12, 10
	fresh, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := frames(t, fresh, total)

	open := func(snapEvery int) *Source {
		dir := t.TempDir()
		cfg := durableConfig(dir)
		cfg.SnapshotEvery = snapEvery
		src, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Get(stop - 1); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		cfg2 := durableConfig(dir)
		cfg2.SnapshotEvery = snapEvery
		resumed, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		return resumed
	}

	for _, tc := range []struct {
		name string
		src  *Source
	}{
		{"snapshot-resume", open(4)},
		{"replay-from-zero", open(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() { _ = tc.src.Close() }()
			f := tc.src.NewFeedAt(at)
			for i := at; i < total; i++ {
				b, err := f.Next()
				if err != nil {
					t.Fatal(err)
				}
				p, err := wire.Encode(b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p, want[i]) {
					t.Fatalf("catch-up cycle %d differs from the fresh stream", i)
				}
			}
			if f.Cycles() != total-at {
				t.Fatalf("feed consumed %d cycles, want %d", f.Cycles(), total-at)
			}
		})
	}
}

// TestTornTailResume pins crash recovery end to end at the source layer:
// a torn final record loses exactly that unpublished cycle, and the
// resumed producer regenerates it byte-identically.
func TestTornTailResume(t *testing.T) {
	const total = 10
	dir := t.TempDir()
	src, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := frames(t, src, total)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := filepath.Glob(filepath.Join(dir, "seg-*.bpl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	tail := names[len(names)-1]
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	// Records are >= 21 bytes, so cutting 3 tears the final record.
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resumed.Close() }()
	if got := resumed.Produced(); got != total-1 {
		t.Fatalf("after torn tail Produced() = %d, want %d", got, total-1)
	}
	got := frames(t, resumed, total)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("cycle %d differs after torn-tail resume (the stream is deterministic, so the lost cycle must regenerate identically)", i)
		}
	}
}

// TestOraclePruneBounded pins the satellite-3 contract: once cycles
// spill, the archive's states and logs are pruned to the check window,
// the floor matches the pure function of total cycles produced, and a
// check reaching below the floor is skipped — never silently wrong.
func TestOraclePruneBounded(t *testing.T) {
	const total, window, mem = 30, 8, 4
	cfg := durableConfig(t.TempDir())
	cfg.Check = true
	cfg.OracleWindow = window
	cfg.MemCycles = mem
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	if _, err := src.Get(total - 1); err != nil {
		t.Fatal(err)
	}
	wantFloor := model.Cycle(total - mem + 1 - window)
	if src.arch.floor != wantFloor {
		t.Fatalf("archive floor = %d, want %d", src.arch.floor, wantFloor)
	}
	if n := len(src.arch.states); n != total-int(wantFloor)+1 {
		t.Fatalf("archive retains %d states, want %d", n, total-int(wantFloor)+1)
	}
	for c := model.Cycle(1); c < wantFloor; c++ {
		if _, ok := src.arch.states[c]; ok {
			t.Fatalf("state for pruned cycle %d still retained", c)
		}
		if _, ok := src.arch.logs[c]; ok {
			t.Fatalf("log for pruned cycle %d still retained", c)
		}
	}
	// A span that reaches below the floor is skipped cleanly.
	err = src.Check(core.CommitInfo{StartCycle: wantFloor - 2, CommitCycle: wantFloor + 2, SerializationCycle: wantFloor + 2})
	if !errors.Is(err, ErrOracleWindow) {
		t.Fatalf("below-floor check = %v, want ErrOracleWindow", err)
	}
	// A fully in-window span still verifies.
	if err := src.Check(core.CommitInfo{StartCycle: total - 1, CommitCycle: total, SerializationCycle: total}); err != nil {
		t.Fatalf("in-window check failed: %v", err)
	}
}

// TestOracleResumeReplaysFull pins that a Check-enabled resume ignores
// snapshots (the graph cannot be rebuilt from one) and reaches the same
// archive floor and verdicts an uninterrupted spilling run reaches.
func TestOracleResumeReplaysFull(t *testing.T) {
	const total, stop, window, mem = 24, 10, 8, 4
	build := func(dir string) Config {
		cfg := durableConfig(dir)
		cfg.Check = true
		cfg.OracleWindow = window
		cfg.MemCycles = mem
		cfg.SnapshotEvery = 2 // present on disk; resume must not use them
		return cfg
	}
	uSrc, err := New(build(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = uSrc.Close() }()
	if _, err := uSrc.Get(total - 1); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	src1, err := New(build(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src1.Get(stop - 1); err != nil {
		t.Fatal(err)
	}
	if err := src1.Close(); err != nil {
		t.Fatal(err)
	}
	src2, err := New(build(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src2.Close() }()
	if _, err := src2.Get(total - 1); err != nil {
		t.Fatal(err)
	}

	if src2.arch.floor != uSrc.arch.floor {
		t.Fatalf("resumed archive floor %d != uninterrupted %d", src2.arch.floor, uSrc.arch.floor)
	}
	if len(src2.arch.states) != len(uSrc.arch.states) || len(src2.arch.logs) != len(uSrc.arch.logs) {
		t.Fatal("resumed archive retention differs from uninterrupted run")
	}
	// Same commit, same verdict, on both sources.
	info := core.CommitInfo{StartCycle: total - 2, CommitCycle: total, SerializationCycle: total - 1}
	if e1, e2 := uSrc.Check(info), src2.Check(info); !errors.Is(e2, e1) && (e1 != nil || e2 != nil) {
		t.Fatalf("verdicts diverge: uninterrupted %v, resumed %v", e1, e2)
	}
}

// TestClosedSourceSpilledRead pins the Close contract: in-window cycles
// stay readable, spilled ones error cleanly.
func TestClosedSourceSpilledRead(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.MemCycles = 2
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Get(5); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Get(5); err != nil {
		t.Errorf("in-window read after Close failed: %v", err)
	}
	if _, err := src.Get(0); err == nil {
		t.Error("spilled read after Close succeeded")
	}
}

// TestDurableConfigValidation covers the new knobs' guard rails.
func TestDurableConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.MemCycles = 4
	if _, err := New(cfg); err == nil {
		t.Error("MemCycles without LogDir accepted")
	}
	cfg = testConfig()
	cfg.SnapshotEvery = 8
	if _, err := New(cfg); err == nil {
		t.Error("SnapshotEvery without LogDir accepted")
	}
	cfg = testConfig()
	cfg.SegmentBytes = 1 << 20
	if _, err := New(cfg); err == nil {
		t.Error("SegmentBytes without LogDir accepted")
	}
	cfg = durableConfig(t.TempDir())
	cfg.MemCycles = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative MemCycles accepted")
	}
}

// TestDurableMetrics pins that the source threads its registry through to
// the disk log.
func TestDurableMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := durableConfig(t.TempDir())
	cfg.Metrics = reg
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	if _, err := src.Get(3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("durlog.append.records").Value(); got != 4 {
		t.Fatalf("durlog.append.records = %d, want 4", got)
	}
}

// TestConcurrentSpilledGets hammers the window-slide race: readers at
// random depths (some in memory, some spilled, some beyond the
// frontier) racing producers that keep sliding the window. Run under
// -race in CI.
func TestConcurrentSpilledGets(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.MemCycles = 3
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	const total, readers = 40, 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < total; i++ {
				// Different readers walk different strides, so lookups mix
				// in-window hits, disk reads, and production races.
				idx := (i*(r+1) + r) % total
				b, err := src.Get(idx)
				if err != nil {
					errs <- err
					return
				}
				if int(b.Cycle) != idx+1 {
					errs <- fmt.Errorf("reader %d: Get(%d) returned cycle %d", r, idx, b.Cycle)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
