package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/workload"
)

// TestGoldenBytes pins the bytes the producer emits — the frames and
// trace of a small SGT run, and a durable log with frames and snapshots —
// to SHA-256 values captured before the producer's commit, assembly and
// trace paths were reworked. Any change to the TxIDs on air, edge order,
// version chains on air or snapshot encoding of reader sets moves a hash.
func TestGoldenBytes(t *testing.T) {
	t.Run("sgt-trace", func(t *testing.T) {
		cfg := traceConfig()
		cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
		cfg.ServerTx = 20
		cfg.Updates = 100
		cfg.Queries = 40
		cfg.Warmup = 10
		_, client, source, frames := diffRun(t, cfg)
		if want := "ed3faa58f41df5c7c4ca248e7ddda1f314a9fd785745415981d0ca50d783e8a1"; frames != want {
			t.Errorf("frames: sha256 %s, want %s", frames, want)
		}
		if !bytes.Contains(source, []byte(`"type":"sg-delta"`)) {
			t.Fatal("producer trace carries no sg-delta events")
		}
		if bytes.Contains(source, []byte(`"type":"sg-edge"`)) {
			t.Fatal("producer trace carries per-edge sg-edge events")
		}
		checkSum(t, "client trace", client, "8f36e57af704f72def409f7cdfff90bc8f39b5b435f82cf55ac9d9e5b6b1f6a0")
		checkSum(t, "producer trace", source, "6d90464fe182a988e2a93973d23bc46a43910a6e8d26e8df2655d66258cb0f4c")
	})
	t.Run("durable-log", func(t *testing.T) {
		dir := t.TempDir()
		src, err := cyclesource.New(cyclesource.Config{
			DBSize:   300,
			Versions: 3,
			Workload: workload.ServerConfig{
				DBSize: 300, UpdateRange: 150, Offset: 20, Theta: 0.95,
				TxPerCycle: 20, UpdatesPerCycle: 100, ReadsPerUpdate: 4,
			},
			Seed:          5,
			Workers:       2,
			LogDir:        dir,
			SnapshotEvery: 16,
			SegmentBytes:  64 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Get(40); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		slices.Sort(names)
		var all bytes.Buffer
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			t.Logf("%s: %d bytes, sha256 %s", name, len(data), hex.EncodeToString(sum[:]))
			all.WriteString(name)
			all.WriteByte(0)
			all.Write(data)
		}
		checkSum(t, "log files", all.Bytes(), "053ea3a29b6c13605f220acaf57388817e14e76dc4f2e7580eb754a5af6e49aa")
	})
}

func checkSum(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s (%d bytes): sha256 %s, want %s", what, len(data), got, want)
	}
}
