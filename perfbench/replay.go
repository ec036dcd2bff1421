package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"incdes/internal/cache"
	"incdes/internal/core"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/pack"
	"incdes/internal/sched"
	"incdes/internal/slack"
)

// replayTarget is one problem whose per-evaluation layers the traced run
// replays on each returned design, with the same inputs the incremental
// evaluator (metrics.Incremental) uses.
type replayTarget struct {
	p       *core.Problem
	eval    *metrics.Incremental
	scratch *sched.State // private copy of p.Base for Begin/Apply/Rollback
	items   []int64      // future-application WCETs, sorted decreasing (C1P)
	mItems  []int64      // future-application message bytes, sorted decreasing (C1m)
	sysJSON []byte       // the problem's system as a request body
	spec    cache.Spec   // the strategy identity a solve request would hash
	packBuf []int64
}

func newReplayTarget(p *core.Problem, bl *metrics.Baseline, sysJSON []byte, spec cache.Spec) *replayTarget {
	scratch := p.Base.Clone()
	scratch.SetStats(sched.Stats{})
	horizon := p.Base.Horizon()
	return &replayTarget{
		p:       p,
		eval:    bl.Evaluator(),
		scratch: scratch,
		items:   sortedDecreasing(p.Profile.LargestAppWCETs(horizon)),
		mItems:  sortedDecreasing(p.Profile.LargestAppMsgBytes(horizon)),
		sysJSON: sysJSON,
		spec:    spec,
	}
}

func sortedDecreasing(items []int64) []int64 {
	out := append([]int64(nil), items...)
	sort.SliceStable(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// replayReps is how many times the per-evaluation layers are replayed
// per design. The first replay runs on cold caches, which no evaluation
// inside a solve does, so the per-evaluation time is the median replay.
const replayReps = 5

// replay times every layer of an evaluation of sol's design, each in its
// own span under parent, and cross-checks the replayed values against
// sol.Report. It returns the packing's item and bin counts (C1P plus
// C1m), the wall time of one transactional evaluation (Begin, Apply,
// EvaluateTxn, Rollback) and the mismatches found.
func (t *replayTarget) replay(rt *obs.RequestTrace, parent *obs.Span, sol *core.Solution) (items, bins int, perEvalNS float64, errs []string) {
	root := rt.Start(parent, "replay")
	defer root.End()
	var evalNS []float64
	for r := 0; r < replayReps; r++ {
		i, b, ns, e := t.replayEval(rt, root, sol)
		if r == 0 {
			items, bins, errs = i, b, e
		}
		evalNS = append(evalNS, ns)
	}
	perEvalNS = median(evalNS)

	sp := rt.Start(root, "metrics.baseline")
	metrics.NewBaseline(t.p.Base, t.p.Profile, t.p.Weights)
	sp.End()

	sp = rt.Start(root, "model.decode")
	sys, err := model.ReadSystem(bytes.NewReader(t.sysJSON))
	sp.End()
	if err != nil {
		errs = append(errs, fmt.Sprintf("replayed decode failed: %v", err))
	} else {
		sp = rt.Start(root, "cache.fingerprint")
		cache.Fingerprint(cache.Request{System: sys, Profile: t.p.Profile, Weights: t.p.Weights, Strategy: t.spec})
		sp.End()
	}
	return items, bins, perEvalNS, errs
}

// replayEval replays the per-evaluation layers once.
func (t *replayTarget) replayEval(rt *obs.RequestTrace, root *obs.Span, sol *core.Solution) (items, bins int, perEvalNS float64, errs []string) {
	st := sol.State
	rep := sol.Report
	sp := rt.Start(root, "slack.processor")
	perNode := slack.Processor(st)
	pBins := slack.Lengths(slack.AllIntervals(perNode))
	sp.End()

	var frac float64
	sp = rt.Start(root, "pack.c1p")
	frac, t.packBuf = pack.BestFitUnpacked(t.items, pBins, t.packBuf)
	sp.End()
	if 100*frac != rep.C1P {
		errs = append(errs, fmt.Sprintf("replayed C1P %v != reported %v", 100*frac, rep.C1P))
	}

	sp = rt.Start(root, "slack.bus_free")
	mBins := slack.BusFreeBytes(st)
	sp.End()
	sp = rt.Start(root, "pack.c1m")
	frac, t.packBuf = pack.BestFitUnpacked(t.mItems, mBins, t.packBuf)
	sp.End()
	if 100*frac != rep.C1m {
		errs = append(errs, fmt.Sprintf("replayed C1m %v != reported %v", 100*frac, rep.C1m))
	}

	// C2: per-node window slack minima plus the bus window minimum.
	sp = rt.Start(root, "slack.window")
	prof := t.p.Profile
	var c2p int64
	for _, n := range st.System().Arch.NodeIDs() {
		ws := slack.WindowSlack(perNode[n], prof.Tmin, st.Horizon())
		min := ws[0]
		for _, v := range ws {
			if v < min {
				min = v
			}
		}
		c2p += int64(min)
	}
	c2m := slack.MinBusWindowFree(st, prof.Tmin)
	sp.End()
	if c2p != int64(rep.C2P) || c2m != rep.C2m {
		errs = append(errs, fmt.Sprintf("replayed C2P/C2m %d/%d != reported %d/%d", c2p, c2m, rep.C2P, rep.C2m))
	}

	// One transactional evaluation of the design on the frozen base:
	// Begin + Apply, score, Rollback.
	sp = rt.Start(root, "sched.apply")
	t0 := time.Now()
	txn := t.scratch.Begin()
	err := txn.Apply(t.p.Current, sol.Mapping, sol.Hints)
	sp.End()
	if err != nil {
		errs = append(errs, fmt.Sprintf("replayed Apply failed: %v", err))
	} else {
		sp = rt.Start(root, "metrics.eval_txn")
		got, _ := t.eval.EvaluateTxn(t.scratch, txn)
		sp.End()
		if got != rep {
			errs = append(errs, fmt.Sprintf("replayed EvaluateTxn %v != reported %v", got, rep))
		}
	}
	sp = rt.Start(root, "sched.rollback")
	txn.Rollback()
	sp.End()
	perEvalNS = float64(time.Since(t0))

	return len(t.items) + len(t.mItems), len(pBins) + len(mBins), perEvalNS, errs
}
