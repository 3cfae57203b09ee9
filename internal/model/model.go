// Package model defines the shared data model of the broadcast-push system:
// item identifiers, broadcast cycles, transaction identifiers, versioned
// values, and the operation records exchanged between the server, the
// broadcast program, and the client-side transaction-processing schemes.
//
// The model follows Pitoura & Chrysanthis (ICDCS 1999): the server owns a
// database of D items, repetitively broadcasts its content once per
// broadcast cycle ("bcast"), and commits update transactions between
// cycles. The content of cycle c reflects exactly the transactions
// committed by the beginning of c, so each cycle broadcasts one consistent
// database state.
package model

import (
	"fmt"
	"strconv"
)

// ItemID identifies a data item (a database record, addressed by its search
// key). Items are numbered 1..D; 0 is reserved as the invalid item.
type ItemID uint32

// InvalidItem is the zero ItemID; it never appears in a database.
const InvalidItem ItemID = 0

// String implements fmt.Stringer.
func (id ItemID) String() string { return "item#" + strconv.FormatUint(uint64(id), 10) }

// Cycle numbers broadcast cycles, starting at 1 for the first becast. Cycle
// 0 denotes "before any broadcast" and is used as the version number of the
// initial database load.
type Cycle uint64

// String implements fmt.Stringer.
func (c Cycle) String() string { return "cycle" + strconv.FormatUint(uint64(c), 10) }

// Value is the value of an item. The paper treats record payloads
// abstractly ("d units of other attributes"); a 64-bit integer is enough to
// verify consistency and currency, and the payload size used for broadcast
// size accounting is configured separately (see broadcast.Sizing).
type Value int64

// TxID identifies a server update transaction. Per §3.3 of the paper,
// transaction identifiers are unique within a broadcast cycle, so the pair
// (commit cycle, sequence within cycle) identifies a transaction globally
// while requiring only log(N) bits on air when the cycle is known from
// context.
type TxID struct {
	// Cycle is the broadcast cycle at whose beginning the transaction's
	// effects first appear on air; i.e. the transaction committed during
	// cycle Cycle-1 processing, and the becast of cycle Cycle carries its
	// values. Cycle 0 marks the initial database load.
	Cycle Cycle
	// Seq is the commit sequence number within the cycle, starting at 0.
	Seq uint32
}

// InitialLoadTx is the pseudo-transaction that wrote the initial database
// state before the first broadcast cycle.
var InitialLoadTx = TxID{Cycle: 0, Seq: 0}

// IsZero reports whether the TxID is the zero value (the initial load).
func (t TxID) IsZero() bool { return t.Cycle == 0 && t.Seq == 0 }

// Before reports whether t committed strictly before u in the server's
// serial commit order.
func (t TxID) Before(u TxID) bool {
	if t.Cycle != u.Cycle {
		return t.Cycle < u.Cycle
	}
	return t.Seq < u.Seq
}

// String implements fmt.Stringer. Built with strconv rather than fmt:
// a traced SGT client stamps the TxID string of every precedence edge it
// records, so this sits on an observed hot path.
func (t TxID) String() string {
	//lint:allow hotalloc reached from SGT NewCycle only with a trace recorder attached: one string per traced precedence edge (the producer renders none)
	buf := make([]byte, 0, 16)
	buf = append(buf, "tx("...)
	buf = strconv.AppendUint(buf, uint64(t.Cycle), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(t.Seq), 10)
	buf = append(buf, ')')
	return string(buf)
}

// Version is one version of an item: the value together with the cycle at
// which the value became current and the transaction that wrote it. The
// version number of a value is the number of the first broadcast cycle that
// carried it (the cycle following the writer's commit), matching §3.2:
// "the values that the item had during the previous S cycles".
type Version struct {
	Value  Value
	Cycle  Cycle // first broadcast cycle carrying this value
	Writer TxID  // last transaction that wrote the value
}

// OpKind distinguishes read and write operations in server transaction
// programs.
type OpKind int

// Operation kinds. Enums start at 1 so the zero value is invalid.
const (
	OpRead OpKind = iota + 1
	OpWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "op(" + strconv.Itoa(int(k)) + ")"
	}
}

// Op is a single operation of a server update transaction.
type Op struct {
	Kind OpKind
	Item ItemID
}

// ServerTx is the program of one server update transaction: an ordered list
// of reads and writes. Per the paper we assume each transaction reads an
// item before writing it (readset ⊇ writeset); workload generation enforces
// this.
type ServerTx struct {
	Ops []Op
}

// ReadObservation records one read performed by a client read-only
// transaction: the item, the value observed, the version cycle of that
// value, and the transaction that wrote it. Committed queries carry their
// full observation list so the simulator can check the readset against a
// consistent database state (the master correctness oracle).
type ReadObservation struct {
	Item    ItemID
	Value   Value
	Version Cycle
	Writer  TxID
}

// DBState is an immutable snapshot of the database, used by the consistency
// oracle. Index i holds the value of item i+1.
type DBState []Value

// Get returns the value of an item, which must be in 1..len(s).
func (s DBState) Get(id ItemID) (Value, error) {
	if id == InvalidItem || int(id) > len(s) {
		return 0, fmt.Errorf("model: %v out of range 1..%d", id, len(s))
	}
	return s[id-1], nil
}
