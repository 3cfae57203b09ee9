package model

import (
	"testing"
	"testing/quick"
)

func TestTxIDBefore(t *testing.T) {
	tests := []struct {
		name string
		a, b TxID
		want bool
	}{
		{name: "earlier cycle", a: TxID{Cycle: 1, Seq: 9}, b: TxID{Cycle: 2, Seq: 0}, want: true},
		{name: "later cycle", a: TxID{Cycle: 3, Seq: 0}, b: TxID{Cycle: 2, Seq: 9}, want: false},
		{name: "same cycle earlier seq", a: TxID{Cycle: 2, Seq: 1}, b: TxID{Cycle: 2, Seq: 2}, want: true},
		{name: "same cycle same seq", a: TxID{Cycle: 2, Seq: 2}, b: TxID{Cycle: 2, Seq: 2}, want: false},
		{name: "initial load before all", a: InitialLoadTx, b: TxID{Cycle: 1, Seq: 0}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Before(tt.b); got != tt.want {
				t.Errorf("(%v).Before(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestTxIDBeforeIsStrictTotalOrder(t *testing.T) {
	// Antisymmetry + irreflexivity via quickcheck: exactly one of
	// a.Before(b), b.Before(a), a==b holds.
	f := func(ac, bc uint8, as, bs uint8) bool {
		a := TxID{Cycle: Cycle(ac), Seq: uint32(as)}
		b := TxID{Cycle: Cycle(bc), Seq: uint32(bs)}
		n := 0
		if a.Before(b) {
			n++
		}
		if b.Before(a) {
			n++
		}
		if a == b {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTxIDIsZero(t *testing.T) {
	if !InitialLoadTx.IsZero() {
		t.Error("InitialLoadTx.IsZero() = false, want true")
	}
	if (TxID{Cycle: 1}).IsZero() {
		t.Error("tx(1.0).IsZero() = true, want false")
	}
	if (TxID{Seq: 1}).IsZero() {
		t.Error("tx(0.1).IsZero() = true, want false")
	}
}

func TestDBStateGet(t *testing.T) {
	s := DBState{10, 20, 30}
	v, err := s.Get(2)
	if err != nil {
		t.Fatalf("Get(2) error: %v", err)
	}
	if v != 20 {
		t.Errorf("Get(2) = %d, want 20", v)
	}
	if _, err := s.Get(0); err == nil {
		t.Error("Get(0) succeeded, want error")
	}
	if _, err := s.Get(4); err == nil {
		t.Error("Get(4) succeeded, want error")
	}
}

func TestStringers(t *testing.T) {
	tests := []struct {
		give interface{ String() string }
		want string
	}{
		{ItemID(7), "item#7"},
		{Cycle(3), "cycle3"},
		{TxID{Cycle: 4, Seq: 2}, "tx(4.2)"},
		{OpRead, "read"},
		{OpWrite, "write"},
		{OpKind(9), "op(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
