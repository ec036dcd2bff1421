package core

import (
	"context"
	"encoding/binary"
	"errors"

	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// EvaluatedCandidate is one distinct design alternative an engine
// scored, with the outcome Evaluate returned for it.
type EvaluatedCandidate struct {
	Mapping model.Mapping
	Hints   sched.Hints
	Report  metrics.Report
	OK      bool
}

// RunRecorded runs opts.Strategy on p through a fresh engine whose memo
// is large enough to keep every outcome, and returns the engine with
// every distinct candidate the run evaluated. The candidates are
// decoded from the memo keys, which encode (mapping, hints) exactly.
func RunRecorded(ctx context.Context, p *Problem, opts Options) (*Engine, []EvaluatedCandidate, error) {
	opts.CacheSize = 1 << 22
	eng := newEngine(p, opts)
	if _, err := opts.Strategy.Run(ctx, eng); err != nil {
		return nil, nil, err
	}
	if len(eng.cache.m) >= eng.cache.max {
		return nil, nil, errors.New("memo full: some candidates were not recorded")
	}
	var out []EvaluatedCandidate
	for key, ent := range eng.cache.m {
		c := EvaluatedCandidate{
			Mapping: model.Mapping{},
			Hints:   sched.Hints{ProcStart: map[model.ProcID]tm.Time{}, MsgStart: map[model.MsgID]tm.Time{}},
			Report:  ent.rep,
			OK:      ent.ok,
		}
		next := func() int64 {
			v := int64(binary.LittleEndian.Uint64([]byte(key[:8])))
			key = key[8:]
			return v
		}
		for _, id := range eng.procIDs {
			c.Mapping[id] = model.NodeID(next())
			if off := next(); off >= 0 {
				c.Hints.ProcStart[id] = tm.Time(off)
			}
		}
		for _, id := range eng.msgIDs {
			if off := next(); off >= 0 {
				c.Hints.MsgStart[id] = tm.Time(off)
			}
		}
		out = append(out, c)
	}
	return eng, out, nil
}
