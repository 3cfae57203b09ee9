package main

import (
	"bytes"
	"errors"
	"fmt"

	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/model"
	"bpush/internal/pool"
)

// The verification pass: outputs are correct, or there are no numbers.
// Every mismatch is counted into the result's failed total; a run with
// failures prints no result.

// verify checks a live run: (1) the byte stream the raw subscriber heard
// is the concatenation of wire.Encode of every cycle the station's source
// holds; (2) every member's outcome digest over the first cycles equals
// that of the same scheme and seed replayed untimed over a fresh
// in-memory cycle source with the oracle on, where every committed query
// must pass Source.Check; (3) the reopened logs had no torn tail.
func (r *liveRun) verify(res *result, heardHash []byte, rs *restartResult) error {
	if !bytes.Equal(heardHash, rs.replayHash) {
		res.fail(1, "frames heard on air differ from wire.Encode of the station's cycles")
	}
	res.fail(rs.recovered, "torn-tail bytes recovered at reopen")

	until := model.Cycle(r.o.prof.verifyCycles)
	if c := model.Cycle(r.cycle); c < until {
		until = c
	}
	cfg := cyclesource.Config{
		DBSize: r.cfg.DBSize, Versions: r.cfg.Versions, Workload: r.cfg.Workload,
		Seed: r.cfg.Seed, Workers: 1, Check: true,
	}
	src, err := cyclesource.New(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = src.Close() }()
	replays := make([]*member, len(r.aud.members))
	err = pool.For(0, len(replays), func(i int) error {
		live := r.aud.members[i]
		m := &member{
			sch: live.sch, seed: live.seed, db: live.db,
			feed:        &stepFeed{inner: src.NewFeed()},
			digestUntil: until, stopAfter: until,
			check: func(info core.CommitInfo) error {
				if err := src.Check(info); err != nil && !errors.Is(err, cyclesource.ErrOracleWindow) {
					return fmt.Errorf("ORACLE VIOLATION: %w", err)
				}
				return nil
			},
		}
		replays[i] = m
		if err := m.run(); err != nil {
			return fmt.Errorf("replay of client %d (%s): %w", i, live.sch.name, err)
		}
		return nil
	})
	if err != nil {
		res.fail(1, err.Error())
		return nil
	}
	for i, live := range r.aud.members {
		if !sameDigest(&live.out, &replays[i].out) {
			res.fail(1, fmt.Sprintf("client %d (%s): outcomes over the first %d cycles differ from the untimed replay", i, live.sch.name, until))
		}
	}
	if r.sh != nil {
		for _, sc := range r.sh.clients {
			if !sameDigest(&sc.m.out, &r.aud.members[sc.of].out) {
				res.fail(1, fmt.Sprintf("shadow client %s: outcomes differ from the audience member it mirrors", sc.m.sch.name))
			}
		}
	}
	return nil
}

func sameDigest(a, b *outcomes) bool {
	return a.digested == b.digested && bytes.Equal(a.digest.Sum(nil), b.digest.Sum(nil))
}
