package core

import (
	"errors"
	"strings"
	"testing"
)

// TestLifecycleAcrossAllSchemes exercises the state-machine edges every
// scheme must share: Begin-before-cycle, double Begin, Active, Abort,
// Commit without transaction, and unknown items.
func TestLifecycleAcrossAllSchemes(t *testing.T) {
	variants := []Options{
		{Kind: KindInvOnly},
		{Kind: KindVCache, CacheSize: 8},
		{Kind: KindMVBroadcast},
		{Kind: KindMVCache, CacheSize: 8},
		{Kind: KindSGT},
	}
	for _, opts := range variants {
		opts := opts
		t.Run(opts.Kind.String(), func(t *testing.T) {
			fresh, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Begin(); err == nil {
				t.Error("Begin before first cycle succeeded")
			}

			h := newHarness(t, 10, 2, opts)
			if h.scheme.Active() {
				t.Error("Active() before Begin")
			}
			if _, err := h.scheme.Commit(); !errors.Is(err, ErrNoTxn) {
				t.Errorf("Commit without txn = %v, want ErrNoTxn", err)
			}
			h.mustBegin()
			if !h.scheme.Active() {
				t.Error("Active() false after Begin")
			}
			if err := h.scheme.Begin(); !errors.Is(err, ErrTxnActive) {
				t.Errorf("double Begin = %v, want ErrTxnActive", err)
			}
			h.mustRead(3)
			h.scheme.Abort()
			if h.scheme.Active() {
				t.Error("Active() true after Abort")
			}
			// Abort with no transaction is a no-op.
			h.scheme.Abort()

			// Unknown item: hard error, not an abort.
			h.mustBegin()
			_, err = h.read(99)
			if err == nil || errors.Is(err, ErrAborted) {
				t.Errorf("read of unknown item = %v, want non-abort error", err)
			}
			h.scheme.Abort()

			// A normal query still works after all of the above.
			h.mustBegin()
			h.mustRead(5)
			h.mustCommit()
		})
	}
}

// TestDuplicateCycleIgnoredAcrossSchemes: a replayed becast is a
// delivery-path artifact (duplicated or reordered frame); every scheme
// must discard it without disturbing state — the receive-path hardening
// that lets clients survive jittery channels.
func TestDuplicateCycleIgnoredAcrossSchemes(t *testing.T) {
	for _, opts := range []Options{
		{Kind: KindInvOnly},
		{Kind: KindVCache, CacheSize: 8},
		{Kind: KindMVBroadcast},
		{Kind: KindMVCache, CacheSize: 8},
		{Kind: KindSGT},
	} {
		h := newHarness(t, 5, 1, opts)
		h.cycle(2)
		h.mustBegin()
		h.mustRead(3)
		if err := h.scheme.NewCycle(h.cur); err != nil {
			t.Errorf("%v: replayed cycle not ignored: %v", opts.Kind, err)
		}
		h.mustRead(4)
		h.mustCommit()
	}
}

// TestUndeclaredGapDowngradedToMisses: a becast arriving with a jump in
// the cycle numbering — frames lost without the client knowing — must be
// treated exactly like a disconnection: the gap cycles become misses, so
// the active transaction aborts for the report-dependent schemes instead
// of silently continuing on stale certification state.
func TestUndeclaredGapDowngradedToMisses(t *testing.T) {
	for _, opts := range []Options{
		{Kind: KindInvOnly},
		{Kind: KindVCache, CacheSize: 8},
		{Kind: KindMVCache, CacheSize: 8},
		{Kind: KindSGT},
	} {
		h := newHarness(t, 5, 1, opts)
		h.mustBegin()
		h.mustRead(3)
		// Advance the server two cycles without telling the scheme, then
		// deliver the latest becast: cycle numbering jumps by 2.
		h.skipSilently(3)
		h.skipSilently()
		if err := h.scheme.NewCycle(h.cur); err != nil {
			t.Fatalf("%v: gapped NewCycle errored: %v", opts.Kind, err)
		}
		if _, err := h.read(3); !errors.Is(err, ErrAborted) {
			t.Errorf("%v: read after undeclared gap = %v, want ErrAborted", opts.Kind, err)
		}
		// A fresh query on the resynced scheme works.
		h.scheme.Abort()
		h.mustBegin()
		h.mustRead(5)
		h.mustCommit()
	}
}

func TestKindStrings(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindInvOnly, "inv-only"},
		{KindVCache, "inv-only+vcache"},
		{KindMVBroadcast, "multiversion"},
		{KindMVCache, "mv-cache"},
		{KindSGT, "sgt"},
		{Kind(77), "kind(77)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestParseKind(t *testing.T) {
	tests := []struct {
		give    string
		want    Kind
		wantErr bool
	}{
		{give: "inv-only", want: KindInvOnly},
		{give: "vcache", want: KindVCache},
		{give: "multiversion", want: KindMVBroadcast},
		{give: "mv", want: KindMVBroadcast},
		{give: "mv-cache", want: KindMVCache},
		{give: "mc", want: KindMVCache},
		{give: "sgt", want: KindSGT},
		{give: "2pl", wantErr: true},
		{give: "bogus", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseKind(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseKind(%q) error = %v, wantErr %v", tt.give, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseKind(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestReadSourceStrings(t *testing.T) {
	if SourceCache.String() != "cache" || SourceBroadcast.String() != "broadcast" || SourceOverflow.String() != "overflow" {
		t.Error("source strings wrong")
	}
	if !strings.HasPrefix(ReadSource(9).String(), "source(") {
		t.Error("unknown source string wrong")
	}
}

func TestAbortErrorMessage(t *testing.T) {
	err := abortErr("because %d", 7)
	if !strings.Contains(err.Error(), "because 7") {
		t.Errorf("Error() = %q", err.Error())
	}
}

// TestSGTCommitWithoutReads: an empty transaction commits at the current
// cycle with an empty readset.
func TestSGTCommitWithoutReads(t *testing.T) {
	h := newHarness(t, 5, 1, Options{Kind: KindSGT})
	h.mustBegin()
	info, err := h.scheme.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Reads) != 0 {
		t.Errorf("empty txn has %d reads", len(info.Reads))
	}
	if info.StartCycle != h.cur.Cycle {
		t.Errorf("StartCycle = %v, want current %v", info.StartCycle, h.cur.Cycle)
	}
}

// TestMVCacheCommitAfterDoomFails: Commit must surface the latched abort.
func TestMVCacheCommitAfterDoomFails(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindMVCache, CacheSize: 8})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(3)
	h.wantAbort(7)
	if _, err := h.scheme.Commit(); !errors.Is(err, ErrAborted) {
		t.Errorf("Commit after doom = %v, want ErrAborted", err)
	}
	if h.scheme.Active() {
		t.Error("scheme still active after failed Commit")
	}
}
