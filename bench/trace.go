package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"bpush/internal/broadcast"
	"bpush/internal/core"
	"bpush/internal/model"
)

// Spans are recorded from this package's own files only, around the calls
// into each layer. One goroutine owns one spanBuf, so recording takes no
// lock; the buffers are merged when the run ends.

// span is one timed call. parent indexes the enclosing span of the same
// buffer (-1 for none); every span of one broadcast cycle carries its
// cycle number.
type span struct {
	name       string
	start, end int64
	parent     int32
	cycle      int64
}

type spanBuf struct {
	id    int // position among the run's buffers, 1-based
	owner string
	spans []span
	open  int32 // innermost span still open, -1 for none
}

func newSpanBuf(id int, owner string) *spanBuf {
	return &spanBuf{id: id, owner: owner, open: -1}
}

// begin opens a span under the innermost open one and returns its index.
func (b *spanBuf) begin(name string, cycle, at int64) int32 {
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{name: name, start: at, parent: b.open, cycle: cycle})
	b.open = i
	return i
}

func (b *spanBuf) finish(i int32, at int64) {
	b.spans[i].end = at
	b.open = b.spans[i].parent
}

// leaf records a finished span with no children.
func (b *spanBuf) leaf(name string, cycle, start, end int64) {
	b.spans = append(b.spans, span{name: name, start: start, end: end, parent: b.open, cycle: cycle})
}

// durationsUs returns the duration in microseconds of every span with the
// given name and a cycle number above after, across buffers.
func durationsUs(bufs []*spanBuf, name string, after int64) []float64 {
	var out []float64
	for _, b := range bufs {
		for i := range b.spans {
			if b.spans[i].name == name && b.spans[i].cycle > after {
				out = append(out, float64(b.spans[i].end-b.spans[i].start)/1e3)
			}
		}
	}
	return out
}

// layerOf maps a span name to its layer: the package the timed call
// belongs to ("core.sgt.newcycle" -> "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, every span's duration minus the part its
// child spans cover, in nanoseconds, over spans of cycles above after.
func selfTimes(bufs []*spanBuf, after int64) map[string]int64 {
	out := map[string]int64{}
	for _, b := range bufs {
		child := make([]int64, len(b.spans))
		for i := range b.spans {
			if p := b.spans[i].parent; p >= 0 {
				child[p] += b.spans[i].end - b.spans[i].start
			}
		}
		for i := range b.spans {
			if b.spans[i].cycle > after && b.spans[i].end != 0 {
				out[layerOf(b.spans[i].name)] += b.spans[i].end - b.spans[i].start - child[i]
			}
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, b := range bufs {
		for i := range b.spans {
			s := &b.spans[i]
			parent := int64(0)
			if s.parent >= 0 {
				parent = spanID(b.id, s.parent)
			}
			fmt.Fprintf(w, `{"id":%d,"name":%q,"owner":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"cycle":%d}`+"\n",
				spanID(b.id, int32(i)), s.name, b.owner, s.start, s.end, parent, s.cycle)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// spanID is unique across buffers; 0 means "no parent".
func spanID(buf int, idx int32) int64 { return int64(buf)<<32 | int64(idx) + 1 }

// tracedScheme times every per-cycle and per-read entry of a scheme. It
// embeds the scheme, so Begin/Abort/MissCycle/Active pass straight
// through and the client runtime cannot tell the difference.
type tracedScheme struct {
	core.Scheme
	buf   *spanBuf
	now   func() int64
	cycle int64
	// Span names, "core.<s>.newcycle" and so on ("shadow." in front for a
	// shadow client, whose spans must not mix with the audience's).
	newCycleName, serveName, commitName string

	// meter is set only for shadow clients, which run while every other
	// goroutine is parked: the allocation delta around NewCycle is then
	// that call's alone.
	meter          *meter
	allocsAfter    int64 // keep samples of later cycles only (the warm-up is not measured)
	newCycleAllocs []float64
}

func newTracedScheme(s core.Scheme, prefix string, buf *spanBuf, now func() int64, mt *meter, allocsAfter int64) *tracedScheme {
	return &tracedScheme{
		Scheme: s, buf: buf, now: now, meter: mt, allocsAfter: allocsAfter,
		newCycleName: prefix + "newcycle", serveName: prefix + "serve", commitName: prefix + "commit",
	}
}

func (t *tracedScheme) NewCycle(b *broadcast.Bcast) error {
	t.cycle = int64(b.Cycle)
	var a0 uint64
	if t.meter != nil {
		a0, _ = t.meter.allocs()
	}
	t0 := t.now()
	err := t.Scheme.NewCycle(b)
	t1 := t.now()
	if t.meter != nil && t.cycle > t.allocsAfter {
		a1, _ := t.meter.allocs()
		t.newCycleAllocs = append(t.newCycleAllocs, float64(a1-a0))
	}
	t.buf.leaf(t.newCycleName, t.cycle, t0, t1)
	return err
}

func (t *tracedScheme) ServeLocal(item model.ItemID) (core.Read, bool, error) {
	t0 := t.now()
	r, ok, err := t.Scheme.ServeLocal(item)
	t.buf.leaf(t.serveName, t.cycle, t0, t.now())
	return r, ok, err
}

func (t *tracedScheme) ServeChannel(item model.ItemID, pos int) (core.Read, int, error) {
	t0 := t.now()
	r, slot, err := t.Scheme.ServeChannel(item, pos)
	t.buf.leaf(t.serveName, t.cycle, t0, t.now())
	return r, slot, err
}

func (t *tracedScheme) Commit() (core.CommitInfo, error) {
	t0 := t.now()
	info, err := t.Scheme.Commit()
	t.buf.leaf(t.commitName, t.cycle, t0, t.now())
	return info, err
}
