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

// TestGoldenBytes pins the bytes the producer emits — a trace with
// serialization-graph edge events, and a durable log with frames and
// snapshots — to SHA-256 values captured before the producer's commit,
// assembly and trace paths were reworked for allocation. Any change to
// TxID rendering, edge order, version chains on air or snapshot encoding
// of reader sets moves a hash.
func TestGoldenBytes(t *testing.T) {
	t.Run("sgt-trace", func(t *testing.T) {
		cfg := traceConfig()
		cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
		cfg.ServerTx = 20
		cfg.Updates = 100
		cfg.Queries = 40
		cfg.Warmup = 10
		client, source := traceRun(t, cfg)
		if !bytes.Contains(source, []byte(`"type":"sg-edge"`)) {
			t.Fatal("producer trace carries no sg-edge events")
		}
		checkSum(t, "client trace", client, "8f36e57af704f72def409f7cdfff90bc8f39b5b435f82cf55ac9d9e5b6b1f6a0")
		checkSum(t, "producer trace", source, "4d5dcd08483c8045e5f42168aaaca4d32c363178f821b1df7f3410872d55a571")
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
