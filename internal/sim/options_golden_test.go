package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"bpush/internal/core"
	"bpush/internal/obs"
)

// optionCell is one scheme configuration that the chaos variants never
// reach, with the program and channel settings it needs.
type optionCell struct {
	name string
	opts core.Options
	tune func(*Config)
}

func withDisconnects(c *Config) { c.DisconnectProb = 0.05 }

func withIntervals(c *Config) { c.Intervals = 5 }

func withTwoDisks(c *Config) { c.DiskHot, c.DiskFreq = 20, 2 }

var optionCells = []optionCell{
	{"vcache-disconnect", core.Options{Kind: core.KindVCache, CacheSize: 40}, withDisconnects},
	{"vcache-oldreads", core.Options{Kind: core.KindVCache, CacheSize: 40, AllowChannelOldReads: true}, nil},
	{"mvcache-oldreads", core.Options{Kind: core.KindMVCache, CacheSize: 40, AllowChannelOldReads: true}, nil},
	{"invonly-bucket", core.Options{Kind: core.KindInvOnly, CacheSize: 40, BucketGranularity: 4}, nil},
	{"vcache-bucket", core.Options{Kind: core.KindVCache, CacheSize: 40, BucketGranularity: 4}, nil},
	{"mvcache-bucket", core.Options{Kind: core.KindMVCache, CacheSize: 40, BucketGranularity: 4}, nil},
	{"invonly-intervals", core.Options{Kind: core.KindInvOnly, CacheSize: 40}, withIntervals},
	{"mvcache-intervals", core.Options{Kind: core.KindMVCache, CacheSize: 40}, withIntervals},
	{"sgt-intervals", core.Options{Kind: core.KindSGT}, withIntervals},
	{"mv-twodisk", core.Options{Kind: core.KindMVBroadcast}, withTwoDisks},
	{"mv-cache-disconnect", core.Options{Kind: core.KindMVBroadcast, CacheSize: 40}, withDisconnects},
	{"sgt-cache-disconnect", core.Options{Kind: core.KindSGT, CacheSize: 40}, withDisconnects},
	{"mvcache-oldfraction", core.Options{Kind: core.KindMVCache, CacheSize: 40, OldFraction: 0.25}, withDisconnects},
}

// TestSchemeOptionsGolden pins what a client heard and did under the
// scheme options, program shapes and cache variants the chaos suite does
// not cover: a SHA-256 over each cell's Metrics and client trace, in cell
// order. Every cell also runs the consistency oracle.
func TestSchemeOptionsGolden(t *testing.T) {
	const want = "5903d8b91829e9d8d7bbb77f39e1e3bc315a215bcec87294fa44614d2cab9988"
	h := sha256.New()
	for _, cell := range optionCells {
		cfg := testConfig(cell.opts.Kind, cell.opts.CacheSize)
		cfg.Scheme = cell.opts
		cfg.Queries = 60
		cfg.Warmup = 10
		if cell.tune != nil {
			cell.tune(&cfg)
		}
		var trace bytes.Buffer
		rec := obs.NewJSONL(&trace)
		cfg.Recorder = rec
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		if rec.Err() != nil {
			t.Fatal(rec.Err())
		}
		if m.Committed == 0 {
			t.Errorf("%s: no query committed", cell.name)
		}
		fmt.Fprintf(h, "%s\n%+v\n", cell.name, *m)
		h.Write(trace.Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("sha256 %s, want %s", got, want)
	}
}
