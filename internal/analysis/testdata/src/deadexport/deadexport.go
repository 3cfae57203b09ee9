// Fixture for the deadexport analyzer, loaded under an import path with
// an internal segment: exported surface that no code of the loaded
// packages uses is a finding; surface that code uses, or that an
// interface or the errors protocol reaches, is not.
package deadexport

import (
	"errors"
	"fmt"
)

func Dead() int { return 1 } // want "exported func Dead"

const Limit = 8 // want "exported const Limit"

var Default = 3 // want "exported var Default"

// Meter is mentioned only by its own methods.
type Meter struct{ n int } // want "exported type Meter"

func (m *Meter) Add(d int) { m.n += d } // want "exported method Meter.Add"

// Helper has no caller outside its package, which is use enough.
func Helper() int { return 2 }

func run() int { return Helper() + len(Box{}.String()) + sizeOf(Box{}) }

// Sizer is declared here; Box satisfies it through Size.
type Sizer interface{ Size() int }

type Box struct{ items []int }

func (b Box) Size() int { return len(b.items) }

// String satisfies fmt.Stringer, an interface of an imported package.
func (b Box) String() string { return fmt.Sprint(b.items) }

func sizeOf(s Sizer) int { return s.Size() }

// NotFound's Is is reached by errors.Is through an interface the
// package never names.
type NotFound struct{}

func (NotFound) Error() string { return "not found" }

func (NotFound) Is(target error) bool { return target == errNotFound }

var errNotFound = errors.New("not found")

func find() error { return NotFound{} }

//lint:allow deadexport kept for the crash-matrix harness, which lives in another repository
func Flush() error { return nil }
