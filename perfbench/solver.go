package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"time"

	"incdes/internal/bench"
	"incdes/internal/cache"
	"incdes/internal/core"
	"incdes/internal/export"
	"incdes/internal/future"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
	"incdes/internal/sim"
	"incdes/internal/tm"
)

// solverSpec defines one solver workload.
type solverSpec struct {
	cfg      gen.Config
	existing int   // processes of each frozen base
	bases    int   // distinct frozen bases; instance i extends base i % bases
	sizes    []int // current-application size of each instance
	// strategy returns the strategy for a current application of the
	// given size and its identity in a solve request.
	strategy func(size int) (core.Strategy, cache.Spec)
}

// spread returns n sizes evenly spaced from lo to hi.
func spread(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo
		if n > 1 {
			out[i] = lo + (hi-lo)*i/(n-1)
		}
	}
	return out
}

// solverSpecFor returns the workload definition. Both families raise the
// future application's processor need (FutureUtil) above the generator
// default: at 0.30 every design of these sizes scores C = 0, so the
// objective would guard nothing, and with the need above the slack the
// platform offers, C is dominated by a shortfall that varies little
// between seeds.
func solverSpecFor(workload string, tiny bool) solverSpec {
	var s solverSpec
	switch workload {
	case "mh-classic":
		s.cfg = gen.Default()
		s.cfg.FutureUtil = 0.9
		s.existing, s.bases, s.sizes = 200, 8, spread(40, 40, 80)
		// The improvement loop is capped so a request takes about 0.2 s
		// and a run holds over 100 of them.
		mh := core.MHWith(core.MHOptions{MaxIterations: 2})
		s.strategy = func(int) (core.Strategy, cache.Spec) { return mh, cache.Spec{Name: "mh"} }
	default: // sa-multicluster
		s.cfg = gen.Multicluster(3, 4, 0.2)
		s.cfg.FutureUtil = 1.2
		s.existing, s.bases, s.sizes = 100, 8, spread(40, 16, 48)
		// SA's own sizing, 60 iterations per process, cut tenfold. Its
		// evaluation cost barely depends on the application (packing the
		// base's slack dominates), so sizing by application spreads the
		// request latencies over a 3x range: a narrow latency
		// distribution would make the median jump with the host's speed.
		s.strategy = func(size int) (core.Strategy, cache.Spec) {
			sa := core.DefaultSAOptions() // seed 1, one chain
			sa.Iterations = 6 * size
			return core.SAWith(sa), cache.Spec{Name: "sa", SAIters: sa.Iterations, SARestarts: 1, SASeed: sa.Seed}
		}
	}
	if tiny {
		s.existing, s.bases, s.sizes = 30, 1, []int{10, 14}
	}
	return s
}

// solverInstance is one seeded problem of a solver workload.
type solverInstance struct {
	sys      *model.System
	base     *sched.State // the frozen base, scheduled over sys
	current  *model.Application
	prof     *future.Profile
	sysJSON  []byte
	strategy core.Strategy
	spec     cache.Spec
	p        *core.Problem
	bl       *metrics.Baseline
	target   *replayTarget
	baseProc []sched.ProcEntry
	baseMsg  []sched.MsgEntry

	// The first solve's outcome, which every later solve must repeat.
	solved    bool
	objective float64
	evals     int
	replayed  bool
	lat       []float64 // untraced latencies, ms
}

// synthesize generates the instance set: spec.bases test cases from
// internal/gen, each extended by further current applications drawn for
// the same frozen base. It is the benchmark's own work (gen runs MH to
// build each frozen history) and is not timed; two goroutines share it.
func synthesize(spec solverSpec, seed int64) ([]*solverInstance, error) {
	insts := make([]*solverInstance, len(spec.sizes))
	errs := make([]error, spec.bases)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				errs[b] = synthesizeBase(spec, seed*1000+int64(b), b, insts)
			}
		}()
	}
	for b := 0; b < spec.bases; b++ {
		next <- b
	}
	close(next)
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("base %d: %w", b, err)
		}
	}
	return insts, nil
}

// synthesizeBase fills the instances of base b: the test case's own
// current application first, then applications drawn by a second
// generator whose IDs cannot collide with the test case's, with periods
// on the test case's period grid so the hyperperiod is unchanged.
func synthesizeBase(spec solverSpec, seed int64, b int, insts []*solverInstance) error {
	tc, err := gen.MakeTestCase(spec.cfg, seed, spec.existing, spec.sizes[b])
	if err != nil {
		return err
	}
	add := func(i int, sys *model.System, base *sched.State, cur *model.Application) error {
		var buf bytes.Buffer
		if err := sys.WriteJSON(&buf); err != nil {
			return err
		}
		in := &solverInstance{sys: sys, base: base, current: cur, prof: tc.Profile, sysJSON: buf.Bytes()}
		in.strategy, in.spec = spec.strategy(spec.sizes[i])
		insts[i] = in
		return nil
	}
	if err := add(b, tc.Sys, tc.Base, tc.Current); err != nil {
		return err
	}
	g := gen.New(spec.cfg, seed+500)
	g.StartIDsAt(1_000_000)
	for i := b + spec.bases; i < len(spec.sizes); i += spec.bases {
		var lastErr error
		ok := false
		for try := 0; try < 25 && !ok; try++ {
			sys, base, cur, err := extendBase(g, tc, spec.sizes[i], fmt.Sprintf("current%d", i))
			if err != nil {
				lastErr = err
				continue
			}
			if err := add(i, sys, base, cur); err != nil {
				return err
			}
			ok = true
		}
		if !ok {
			return fmt.Errorf("no schedulable application of size %d: %w", spec.sizes[i], lastErr)
		}
	}
	return nil
}

// extendBase draws one current application for tc's frozen base and
// returns the system of base applications plus it, with the base
// schedule carried over.
func extendBase(g *gen.Generator, tc *gen.TestCase, size int, name string) (*model.System, *sched.State, *model.Application, error) {
	app, levels := g.Application(name, size)
	for gi, gr := range app.Graphs {
		gr.Period = tm.Time(levels[gi]) * tc.BasePeriod
		gr.Deadline = gr.Period
	}
	apps := append(append([]*model.Application(nil), tc.Existing...), app)
	sys := &model.System{Arch: tc.Sys.Arch, Apps: apps}
	if err := sys.Validate(); err != nil {
		return nil, nil, nil, err
	}
	base, err := sched.Restrict(tc.Base, sys, func(model.AppID) bool { return true })
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := base.Clone().MapApp(app, sched.Hints{}); err != nil {
		return nil, nil, nil, err
	}
	return sys, base, app, nil
}

// setUp builds every instance's problem and metric baseline, the program
// work a caller pays before its first solve.
func setUp(insts []*solverInstance) error {
	for _, in := range insts {
		p, err := core.NewProblem(in.sys, in.base, in.current, in.prof, metrics.DefaultWeights(in.prof))
		if err != nil {
			return err
		}
		in.p = p
		in.bl = metrics.NewBaseline(p.Base, p.Profile, p.Weights)
	}
	return nil
}

// check verifies one returned design and returns the mismatches.
func (in *solverInstance) check(sol *core.Solution) []string {
	var errs []string
	if sol.Interrupted {
		errs = append(errs, "solve interrupted")
	}
	if v := sim.Check(sol.State, in.current); len(v) > 0 {
		errs = append(errs, fmt.Sprintf("sim.Check: %d violations, first %v", len(v), v[0]))
	}
	if d, err := export.Build(sol.State); err != nil {
		errs = append(errs, fmt.Sprintf("export.Build: %v", err))
	} else if v := export.Check(d, in.sys, in.current); len(v) > 0 {
		errs = append(errs, fmt.Sprintf("export.Check: %d violations, first %s", len(v), v[0]))
	}
	procs, msgs := sol.State.ProcEntries(), sol.State.MsgEntries()
	if len(procs) < len(in.baseProc) || !reflect.DeepEqual(procs[:len(in.baseProc)], in.baseProc) ||
		len(msgs) < len(in.baseMsg) || !reflect.DeepEqual(msgs[:len(in.baseMsg)], in.baseMsg) {
		errs = append(errs, "frozen base entries changed")
	}
	if !in.solved {
		in.solved, in.objective, in.evals = true, sol.Objective(), sol.Evaluations
	} else if sol.Objective() != in.objective || sol.Evaluations != in.evals {
		errs = append(errs, fmt.Sprintf("objective/evaluations %v/%d differ from the first solve's %v/%d",
			sol.Objective(), sol.Evaluations, in.objective, in.evals))
	}
	return errs
}

// runSolver runs mh-classic or sa-multicluster: one client, Parallelism
// 1, GOMAXPROCS 1, cycling the instance set round-robin until the
// measured time has passed, then finishing the cycle.
func runSolver(cfg config, out io.Writer) (*result, error) {
	spec := solverSpecFor(cfg.Workload, cfg.Tiny)
	runtime.GOMAXPROCS(2)
	insts, err := synthesize(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	synthRSS := bench.PeakRSS()
	resetPeakRSS()

	// A set-up timed during the run rebuilds every instance's problem and
	// baseline; a rebuilt instance solves exactly as before, which the
	// repeat check of every solve confirms.
	setups, err := newSetupTimer(func() error { return setUp(insts) }, cfg.Seconds)
	if err != nil {
		return nil, err
	}
	for _, in := range insts {
		in.baseProc = append([]sched.ProcEntry(nil), in.base.ProcEntries()...)
		in.baseMsg = append([]sched.MsgEntry(nil), in.base.MsgEntries()...)
		if cfg.Trace {
			in.target = newReplayTarget(in.p, in.bl, in.sysJSON, in.spec)
		}
	}
	fmt.Fprintf(out, "%s: %d instances on %d frozen bases of %d processes, current sizes %d-%d; peak RSS after synthesis %.1f MB\n",
		cfg.Workload, len(insts), spec.bases, spec.existing, spec.sizes[0], spec.sizes[len(spec.sizes)-1], float64(synthRSS)/1e6)

	res := &result{}
	lr := &layerRun{instances: len(insts), replayTargets: len(insts)}
	if cfg.Trace {
		lr.traces = &traceLog{}
	}
	ref := newRefKernel()
	lr.refs = append(lr.refs, ref.run())
	var lat []float64
	var busy time.Duration
	ctx := context.Background()
	var req int64
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for cycle := 0; ; cycle++ {
		// A traced run alternates untraced and traced cycles, so drift
		// slows both alike and the overhead compares like with like.
		traced := cfg.Trace && cycle%2 == 1
		for _, in := range insts {
			req++
			var rt *obs.RequestTrace
			if traced {
				rt = lr.traces.start(req)
			}
			root := rt.Start(nil, "bench.request")
			opts := core.Options{Strategy: in.strategy, Parallelism: 1, Baseline: in.bl}
			var reg *obs.Registry
			var m0 memDelta
			if traced {
				reg = obs.NewRegistry()
				opts.Observer = &obs.Observer{Stats: reg}
				m0 = readMem()
			}
			sp := rt.Start(root, "core.Solve")
			t0 := time.Now()
			sol, err := core.Solve(ctx, in.p, opts)
			d := time.Since(t0)
			sp.End()
			res.Attempted++
			if err != nil {
				res.Failed++
				fmt.Fprintf(out, "FAIL request %d: %v\n", req, err)
				root.End()
				continue
			}
			if traced {
				lr.mem = lr.mem.add(readMem().since(m0))
				lr.memReqs++
				lr.latTraced = append(lr.latTraced, ms(d))
				lr.solveNS += float64(d)
				lr.explainSolveNS += float64(d)
				lr.addCounters(reg.Snapshot().Counters)
			} else {
				lat = append(lat, ms(d))
				in.lat = append(in.lat, ms(d))
				busy += d
			}
			var errs []string
			sp = rt.Start(root, "check")
			errs = in.check(sol)
			sp.End()
			if traced {
				items, bins, perEval, rerrs := in.target.replay(rt, root, sol)
				errs = append(errs, rerrs...)
				lr.explainedNS += perEval * float64(sol.Evaluations-sol.CacheHits)
				if !in.replayed {
					in.replayed = true
					lr.items += int64(items)
					lr.bins += int64(bins)
				}
			}
			root.End()
			if len(errs) > 0 {
				res.Failed++
				fmt.Fprintf(out, "FAIL request %d: %v\n", req, errs)
			}
			lr.refs = append(lr.refs, ref.run())
			if err := setups.maybe(); err != nil {
				return nil, err
			}
		}
		if time.Now().After(deadline) && (!cfg.Trace || cycle >= 1) {
			break
		}
	}

	var objectives []float64
	fmt.Fprintln(out, "instances (processes, evaluations, objective, median untraced latency):")
	for _, in := range insts {
		objectives = append(objectives, in.objective)
		lr.evals += int64(in.evals)
		n := 0
		for _, g := range in.current.Graphs {
			n += len(g.Procs)
		}
		fmt.Fprintf(out, "  %3d %6d %10.4f %9.2f ms\n", n, in.evals, in.objective, median(in.lat))
	}
	if cfg.Trace {
		lr.latPlain = lat
		res.Metrics = lr.metrics(out)
		if err := lr.traces.write(cfg.SpansOut); err != nil {
			return nil, err
		}
	} else {
		// One client: requests per second of solving is the reciprocal
		// of the mean latency.
		res.Metrics = endToEnd(out, lat, objectives, setups.samples, bench.PeakRSS(), float64(len(lat))/busy.Seconds())
	}
	printQuantile(out, "host.ref_ms", lr.refs, 0.5, "ms")
	return res, nil
}
