package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// exhibitsGolden pins every paper exhibit (and both extensions) byte for
// byte: one SHA-256 per exhibit over its printed table at goldenOptions'
// resolution. The tables are what bpush-exp prints, without the
// "(total Ns)" timing line. A change that moves any number of any scheme
// (SGT's graph, the caches, the server pipeline, the workload draws)
// moves a hash here; re-pin only for a change that means to move a number,
// and say which in the change log.
var exhibitsGolden = map[string]string{
	"fig5-left":       "4588f16ac62622c1621052a5e4d4ba6b01727b0b454880c3858098a35c537d10",
	"fig5-right":      "606b735262e2181913c566d4dcdb39387850410c273f93eb3a2b40c6d55ea638",
	"fig6":            "8db9966e70b6c1662fad957a28ce3b254caa7e8c7742bcc75cf34cd432b7e4b0",
	"fig7-span":       "72f244b1395da83c54180e2f1c9944c17462f286d125a76282847dde245a9ff8",
	"fig7-updates":    "087e2ac000bd32aff54aa87dc3001c7e7b2f4ded7cf5d956daf0b3491a230206",
	"fig8-left":       "84d6f96067ea3544183bec454b7e8a54018a40daf8efa9161a6f550bf807a9ac",
	"fig8-right":      "acfb343ba2ab42c9fdd8768a857f377e1f29a72fae0e8fc58f933c50298d0844",
	"table1":          "7c0a8230035557b26b565e7fba397fe6a55de8b64b7a19cfa97e287956828439",
	"ext-disconnect":  "dfb6d84d038d4d8493c52fd619f22c795ab257917cd7ffdd13a3559c18b57f2a",
	"ext-scalability": "7098e3b3a69253e7302ed567d476a242b1da16a984890b21af1f0ac86416ee91",
}

// goldenOptions is the pinned resolution: small enough to add about two
// seconds to the suite on two CPUs, with the consistency oracle on so the
// Check-mode graph answers every SGT commit.
func goldenOptions() Options {
	return Options{Queries: 8, Warmup: 2, Seed: 1, CacheSize: 50, Check: true}
}

func TestExhibitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := goldenOptions()
	figs := map[string]func() (*Figure, error){
		"fig5-left":       func() (*Figure, error) { return Fig5Left(o) },
		"fig5-right":      func() (*Figure, error) { return Fig5Right(o) },
		"fig6":            func() (*Figure, error) { return Fig6(o) },
		"fig7-span":       Fig7Span,
		"fig7-updates":    Fig7Updates,
		"fig8-left":       func() (*Figure, error) { return Fig8Left(o) },
		"fig8-right":      func() (*Figure, error) { return Fig8Right(o) },
		"ext-disconnect":  func() (*Figure, error) { return ExtDisconnect(o) },
		"ext-scalability": func() (*Figure, error) { return ExtScalability(o) },
	}
	printed := make(map[string]string, len(exhibitsGolden))
	for id, gen := range figs {
		f, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		printed[id] = "== " + f.ID + ": " + f.Title + " ==\n" + f.Table().String()
	}
	tbl, err := Table1(o)
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	printed["table1"] = tbl.String()

	for id, want := range exhibitsGolden {
		out, ok := printed[id]
		if !ok {
			t.Errorf("%s: no exhibit generated", id)
			continue
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: printed table hash %s, want %s\n%s", id, got, want, out)
		}
	}
	if len(printed) != len(exhibitsGolden) {
		t.Errorf("generated %d exhibits, golden pins %d", len(printed), len(exhibitsGolden))
	}
}
