package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"math/rand"
	"net"
	"sync/atomic"

	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/model"
	"bpush/internal/workload"
)

// errDone ends a shadow client: the conductor closed its feed.
var errDone = errors.New("bench: member finished")

// stepFeed is the lockstep seam between the conductor and one audience
// member. A member is done with a cycle when it asks for the next one, so
// Next first reports the previous cycle as finished and only then waits
// for the next becast. With done nil it is a plain pass-through, which is
// how untimed replays and the sim-fleet traced clients use it.
//
// Neither netcast.Tuner nor cyclesource.Feed implements client.EventFeed,
// so wrapping them cannot change what the client runtime does.
type stepFeed struct {
	inner client.Feed
	done  chan<- int32
	id    int32 // the token sent on done
	heard bool
	// onHeard runs after each becast arrives (member 0 publishes the byte
	// target of the raw subscribers from it).
	onHeard func()

	// Set only in traced runs.
	buf      *spanBuf
	now      func() int64
	nextName string
	inNext   int64 // ns spent inside Next since the member last reset it
}

func (f *stepFeed) Next() (*broadcast.Bcast, error) {
	if f.heard && f.done != nil {
		f.done <- f.id
	}
	var t0 int64
	if f.buf != nil {
		t0 = f.now()
	}
	b, err := f.inner.Next()
	if err != nil {
		return nil, err
	}
	f.heard = true
	if f.buf != nil {
		t1 := f.now()
		f.inNext += t1 - t0
		f.buf.leaf(f.nextName, int64(b.Cycle), t0, t1)
	}
	if f.onHeard != nil {
		f.onHeard()
	}
	return b, nil
}

// chanFeed hands a shadow client the becasts the conductor decodes.
type chanFeed chan *broadcast.Bcast

func (c chanFeed) Next() (*broadcast.Bcast, error) {
	b, ok := <-c
	if !ok {
		return nil, errDone
	}
	return b, nil
}

// countConn counts the bytes a subscriber has read. In lockstep nothing
// beyond the current frame is on the wire, so once the tuner returns cycle
// k the count is exactly the size of frames 1..k: the benchmark learns
// frame sizes without knowing the frame layout.
type countConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// outcomes is what one member's queries amounted to.
type outcomes struct {
	// Measured-phase totals (queries that finished after cycle `from`).
	queries, aborted                     int64
	latencyCycles, spanCycles, committed int64
	reads, cacheReads                    int64
	// digest covers every query that finished at or before digestUntil,
	// warm-up included: committed/aborted, reason, and the readset.
	digest   hash.Hash
	digested int64
	// queryNs is RunQuery wall time minus the time inside Feed.Next
	// (traced runs only).
	queryNs []int64
}

// member is one scheme client of an audience (or a shadow or replay of
// one). Its behaviour is a pure function of (stream, scheme, seed).
type member struct {
	sch  scheme
	seed int64
	db   int
	feed *stepFeed

	from        model.Cycle // queries finishing later are measured
	digestUntil model.Cycle
	stopAfter   model.Cycle // when non-zero, stop once the client is past this cycle
	maxQueries  int         // when non-zero, stop after this many queries
	skipQueries int         // the first queries, finished but not measured (sim warm-up)
	// check, when set, verifies every committed query (replays only).
	check func(core.CommitInfo) error

	// Traced runs.
	buf   *spanBuf
	now   func() int64
	meter *meter // shadow clients only

	// spanPrefix is "shadow." for shadow clients, whose spans must not
	// mix with the audience's.
	spanPrefix string

	out   outcomes
	ts    *tracedScheme
	newUs float64
}

// traceInto makes the member record spans into buf: its scheme and its
// feed are wrapped, and nextName names the span of one Feed.Next.
func (m *member) traceInto(buf *spanBuf, now func() int64, nextName string) {
	m.buf, m.now = buf, now
	m.feed.buf, m.feed.now, m.feed.nextName = buf, now, nextName
}

// run drives the member until its feed ends or a bound is reached. A nil
// return means a bound was reached; any feed error is returned as is.
func (m *member) run() error {
	qgen, err := workload.NewQueryGen(workload.ClientConfig{
		ReadRange: m.db, Theta: theta, OpsPerQuery: opsPerQuery,
	}, rand.New(rand.NewSource(m.seed)))
	if err != nil {
		return err
	}
	sch, err := core.New(m.sch.opts)
	if err != nil {
		return err
	}
	if m.buf != nil {
		m.ts = newTracedScheme(sch, m.spanPrefix+"core."+m.sch.name+".", m.buf, m.now, m.meter, int64(m.from))
		sch = m.ts
	}
	m.out.digest = sha256.New()
	var t0 int64
	if m.buf != nil {
		t0 = m.now()
	}
	cl, err := client.New(sch, m.feed, client.Config{ThinkTime: thinkTime, Seed: m.seed + 1})
	if err != nil {
		return err
	}
	if m.buf != nil {
		m.newUs = float64(m.now()-t0) / 1e3
	}
	queryName := m.spanPrefix + "client.query"
	for q := 0; m.maxQueries == 0 || q < m.maxQueries; q++ {
		items := qgen.Query()
		var open int32
		if m.buf != nil {
			m.feed.inNext = 0
			open = m.buf.begin(queryName, int64(cl.Cycle()), m.now())
		}
		res, err := cl.RunQuery(items)
		if m.buf != nil {
			end := m.now()
			m.buf.finish(open, end)
			if err == nil {
				m.out.queryNs = append(m.out.queryNs, end-m.buf.spans[open].start-m.feed.inNext)
			}
		}
		if err != nil {
			return err
		}
		at := cl.Cycle()
		if m.stopAfter != 0 && at > m.stopAfter {
			return nil
		}
		if m.check != nil && res.Committed {
			if err := m.check(res.Info); err != nil {
				return err
			}
		}
		if q >= m.skipQueries {
			m.out.add(res, at, m.from, m.digestUntil)
		}
	}
	return nil
}

func (o *outcomes) add(res client.QueryResult, at, from, digestUntil model.Cycle) {
	if at <= digestUntil {
		o.digested++
		var rec [8]byte
		put := func(v uint64) {
			binary.BigEndian.PutUint64(rec[:], v)
			o.digest.Write(rec[:])
		}
		if res.Committed {
			put(1)
		} else {
			put(0)
			o.digest.Write([]byte(res.AbortReason))
		}
		put(uint64(at))
		put(uint64(res.LatencyCycles))
		put(uint64(res.Info.SerializationCycle))
		for _, ro := range res.Info.Reads {
			put(uint64(ro.Item))
			put(uint64(ro.Value))
			put(uint64(ro.Version))
		}
	}
	if at <= from {
		return
	}
	o.queries++
	o.reads += int64(res.Reads)
	o.cacheReads += int64(res.CacheReads)
	if res.Committed {
		o.committed++
		o.latencyCycles += int64(res.LatencyCycles)
		o.spanCycles += int64(res.Span)
	} else {
		o.aborted++
	}
}

// merge adds p's measured-phase totals into o.
func (o *outcomes) merge(p *outcomes) {
	o.queries += p.queries
	o.aborted += p.aborted
	o.committed += p.committed
	o.latencyCycles += p.latencyCycles
	o.spanCycles += p.spanCycles
	o.reads += p.reads
	o.cacheReads += p.cacheReads
	o.queryNs = append(o.queryNs, p.queryNs...)
}
