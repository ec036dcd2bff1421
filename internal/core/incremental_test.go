package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"incdes/internal/core"
	"incdes/internal/obs"
)

// TestIncrementalEquivalence is the differential test of the engine's
// transactional evaluation against the reference implementation: every
// distinct candidate an MH or SA solve scores through Evaluate (apply,
// rescore the touched regions, roll back on a standing base copy) must
// get the same (Report, ok) from Materialize, which clones the base,
// schedules and scores from scratch. It runs on the classic single-bus
// family and the 3-cluster family, serially and with four workers, so a
// rollback that leaks state into a worker's base copy shows up as a
// mismatch on a later candidate.
func TestIncrementalEquivalence(t *testing.T) {
	problems := []struct {
		name string
		p    *core.Problem
	}{
		{"classic", testProblem(t, 21, 50, 25)},
		{"multicluster", multiclusterProblem(t, 21)},
	}
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"MH", core.MHWith(core.MHOptions{MaxIterations: 8})},
		{"SA", core.SAWith(core.SAOptions{Seed: 3, Iterations: 400, Restarts: 3})},
	}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			for _, fam := range problems {
				for _, par := range []int{1, 4} {
					label := fmt.Sprintf("%s/par%d", fam.name, par)
					eng, cands, err := core.RunRecorded(context.Background(), fam.p,
						core.Options{Strategy: s.strat, Parallelism: par})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					feasible := 0
					for i, c := range cands {
						_, rep, err := eng.Materialize(c.Mapping, c.Hints)
						if ok := err == nil; ok != c.OK || !reflect.DeepEqual(rep, c.Report) {
							t.Fatalf("%s: candidate %d: Evaluate = (%+v, %v), Materialize = (%+v, %v)",
								label, i, c.Report, c.OK, rep, ok)
						}
						if c.OK {
							feasible++
						}
					}
					if feasible == 0 {
						t.Fatalf("%s: no feasible candidate among %d evaluated", label, len(cands))
					}
				}
			}
		})
	}
}

// TestIncrementalDefaultOn pins that a zero-valued Options evaluates
// candidates as transactions.
func TestIncrementalDefaultOn(t *testing.T) {
	p := testProblem(t, 22, 30, 15)
	reg := obs.NewRegistry()
	runSolve(t, p, core.Options{
		Strategy: core.MHWith(core.MHOptions{MaxIterations: 4}),
		Observer: &obs.Observer{Stats: reg},
	})
	if reg.Snapshot().Counters[obs.CtrTxnApplies] == 0 {
		t.Error("zero-valued Options did not take the transactional path")
	}
}

// TestIncrementalCounters checks the core.txn_* instruments: every
// evaluation is a transaction (each one rolled back), split into
// incremental and full-recompute scoring, with dirty-interval volume
// recorded.
func TestIncrementalCounters(t *testing.T) {
	// Current app smaller than the node count: candidates routinely leave
	// timelines clean, so both the incremental and the full-recompute
	// classifications occur.
	p := testProblem(t, 23, 50, 8)
	reg := obs.NewRegistry()
	runSolve(t, p, core.Options{
		Strategy: core.SAWith(core.SAOptions{Seed: 9, Iterations: 300}),
		Observer: &obs.Observer{Stats: reg},
	})
	c := reg.Snapshot().Counters
	if c[obs.CtrTxnApplies] == 0 {
		t.Fatal("txn_applies = 0: no evaluation ran as a transaction")
	}
	if c[obs.CtrTxnApplies] != c[obs.CtrTxnRollbacks] {
		t.Errorf("every transaction is rolled back: applies %d != rollbacks %d",
			c[obs.CtrTxnApplies], c[obs.CtrTxnRollbacks])
	}
	evals := c[obs.CtrTxnIncremental] + c[obs.CtrTxnFull] + c[obs.CtrInfeasible]
	if evals != c[obs.CtrTxnApplies] {
		t.Errorf("incremental %d + full %d + infeasible %d != applies %d",
			c[obs.CtrTxnIncremental], c[obs.CtrTxnFull], c[obs.CtrInfeasible], c[obs.CtrTxnApplies])
	}
	if c[obs.CtrTxnIncremental] == 0 {
		t.Error("no evaluation took the incremental path")
	}
	if c[obs.CtrTxnDirty] == 0 {
		t.Error("txn_dirty_intervals = 0 despite applied transactions")
	}
}
