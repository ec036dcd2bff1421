package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"incdes/internal/bench"
	"incdes/internal/cache"
	"incdes/internal/core"
	"incdes/internal/export"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/serve"
	"incdes/internal/session"
	"incdes/internal/sim"
)

// serve-mixed shape. Each cycle issues resubmits (cache-hit reads),
// distinct solves from a pool larger than the solution cache (misses)
// and session commit chains on fresh branches (writes), interleaved.
// Hits stay below half of the requests, so the median falls inside the
// solving requests rather than on the boundary between the classes.
const (
	serveResubmits  = 8  // resubmit requests per cycle
	serveDistinct   = 10 // distinct-pool requests per cycle
	serveChains     = 4  // commit chains per cycle
	servePool       = 16 // distinct systems; the cache holds fewer
	serveCacheSize  = 4
	serveClients    = 2
	serveRotate     = 4  // cycles per session; see rotateSession
	serveRetries    = 20 // redraws of an unschedulable system
	serveSeedStride = 1_000_003
)

// serve-mixed solves with AH, the initial mapping alone (one
// evaluation), so the request path rather than the search dominates its
// latency: decoding, problem construction, the cache, the session and
// the JSON encoding of the design.
var serveStrategy = core.AH

const serveStrategyParam = "ah"

// serveConfig is the generator family of the served systems: small
// 4-node platforms at high utilisation, so every design scores C > 0
// against the default future profile the server derives.
func serveConfig() gen.Config {
	cfg := gen.Default()
	cfg.Nodes = 4
	cfg.GraphMinProcs, cfg.GraphMaxProcs = 4, 8
	cfg.TargetUtil = 0.75
	return cfg
}

// genSystem draws one system with the given application sizes.
func genSystem(seed int64, sizes ...int) (*model.System, error) {
	g := gen.New(serveConfig(), seed)
	var apps []*model.Application
	var levels [][]int
	for i, n := range sizes {
		app, lv := g.Application(fmt.Sprintf("app%d", i), n)
		apps = append(apps, app)
		levels = append(levels, lv)
	}
	g.AssignPeriods(apps, levels)
	sys := &model.System{Arch: g.Architecture(), Apps: apps}
	return sys, sys.Validate()
}

func encodeJSON(write func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	err := write(&buf)
	return buf.Bytes(), err
}

// checkDesign validates a served design document against the system it
// was solved for.
func checkDesign(doc *serve.SolutionDoc, sys *model.System, app *model.Application) error {
	if doc.Interrupted {
		return fmt.Errorf("solve interrupted")
	}
	if v := export.Check(doc.Design, sys, app); len(v) > 0 {
		return fmt.Errorf("export.Check: %d violations, first %s", len(v), v[0])
	}
	return nil
}

// serveSolve is one one-shot solve request with its expected answer.
type serveSolve struct {
	body      []byte
	ref       []byte // serve.NewSolutionDoc of a direct core.Solve, as JSON
	sol       *core.Solution
	objective float64
	target    *replayTarget
	replayed  bool
}

// newServeSolve draws a schedulable system and solves it directly, the
// way the server will, to fix the expected response.
func newServeSolve(seed int64, sizes ...int) (*serveSolve, error) {
	var lastErr error
	for try := 0; try < serveRetries; try++ {
		s, err := tryServeSolve(seed+int64(try)*serveSeedStride, sizes...)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("no schedulable system after %d draws: %w", serveRetries, lastErr)
}

func tryServeSolve(seed int64, sizes ...int) (*serveSolve, error) {
	sys, err := genSystem(seed, sizes...)
	if err != nil {
		return nil, err
	}
	body, err := encodeJSON(sys.WriteJSON)
	if err != nil {
		return nil, err
	}
	p, err := serve.BuildProblem(sys, "")
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(context.Background(), p, core.Options{Strategy: serveStrategy, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if v := sim.Check(sol.State, p.Current); len(v) > 0 {
		return nil, fmt.Errorf("sim.Check: %v", v[0])
	}
	doc, err := serve.NewSolutionDoc(sol)
	if err != nil {
		return nil, err
	}
	if err := checkDesign(doc, sys, p.Current); err != nil {
		return nil, err
	}
	ref, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return &serveSolve{body: body, ref: ref, sol: sol, objective: sol.Objective(),
		target: newReplayTarget(p, metrics.NewBaseline(p.Base, p.Profile, p.Weights), body, cache.Spec{Name: serveStrategyParam})}, nil
}

// serveChain is the commit class: a base system opened as a session and
// the applications each fresh branch commits in order.
type serveChain struct {
	baseJSON   []byte
	apps       [][]byte // application bodies, in commit order
	refs       [][]byte // expected solution document of each commit
	objectives []float64
	evals      []int
}

// newServeChain draws a base and its increments and runs the chain once
// through the session library, which fixes the expected commit answers
// and proves the increments legal and schedulable.
func newServeChain(seed int64, base int, incs ...int) (*serveChain, error) {
	var lastErr error
	for try := 0; try < serveRetries; try++ {
		c, err := tryServeChain(seed+int64(try)*serveSeedStride, base, incs...)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("no legal commit chain after %d draws: %w", serveRetries, lastErr)
}

func tryServeChain(seed int64, base int, incs ...int) (*serveChain, error) {
	sys, err := genSystem(seed, append([]int{base}, incs...)...)
	if err != nil {
		return nil, err
	}
	baseSys := &model.System{Arch: sys.Arch, Apps: sys.Apps[:1]}
	c := &serveChain{}
	if c.baseJSON, err = encodeJSON(baseSys.WriteJSON); err != nil {
		return nil, err
	}
	mgr, err := session.NewManager(session.NewMemStore(), nil)
	if err != nil {
		return nil, err
	}
	sess, err := mgr.Open(baseSys, nil, "")
	if err != nil {
		return nil, err
	}
	for i, app := range sys.Apps[1:] {
		res, err := sess.Commit(context.Background(), app, session.CommitParams{Strategy: serveStrategy, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		doc, err := serve.NewSolutionDoc(res.Solution)
		if err != nil {
			return nil, err
		}
		composite := &model.System{Arch: sys.Arch, Apps: sys.Apps[:i+2]}
		if err := checkDesign(doc, composite, app); err != nil {
			return nil, err
		}
		ref, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		body, err := encodeJSON(app.WriteJSON)
		if err != nil {
			return nil, err
		}
		c.apps = append(c.apps, body)
		c.refs = append(c.refs, ref)
		c.objectives = append(c.objectives, res.Solution.Objective())
		c.evals = append(c.evals, res.Solution.Evaluations)
	}
	return c, nil
}

// serveInputs is the seeded input set of one serve-mixed run.
type serveInputs struct {
	resubmit *serveSolve
	pool     []*serveSolve
	chain    *serveChain
}

func synthesizeServe(seed int64, tiny bool) (*serveInputs, error) {
	pool := servePool
	if tiny {
		pool = serveCacheSize + 2
	}
	in := &serveInputs{pool: make([]*serveSolve, pool)}
	errs := make([]error, pool+2)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	job := func(i int, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			errs[i] = fn()
			<-sem
		}()
	}
	base := seed * 10_000
	job(0, func() (err error) { in.resubmit, err = newServeSolve(base, 24, 12); return })
	job(1, func() (err error) { in.chain, err = newServeChain(base+1, 24, 8, 8); return })
	for i := range in.pool {
		i := i
		job(i+2, func() (err error) {
			in.pool[i], err = newServeSolve(base+2+int64(i), 16+i%3*4, 8+i%4*2)
			return
		})
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve input %d: %w", i, err)
		}
	}
	return in, nil
}

// serveClient issues requests against the in-process handler.
type serveClient struct {
	h      http.Handler
	srv    *serve.Server
	traces *traceLog
	reqs   atomic.Int64
}

// call issues one untimed set-up request and decodes a 2xx body into out.
func (c *serveClient) call(method, url string, body []byte, want int, out any) error {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
	if rec.Code != want {
		return fmt.Errorf("%s %s = %d: %.200s", method, url, rec.Code, rec.Body.String())
	}
	if out != nil {
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	return nil
}

// sample is one timed HTTP request.
type sample struct {
	class string // "resubmit", "distinct" or "commit"
	ms    float64
	err   error
	req   int64
	pool  int // distinct-pool index, -1 otherwise
	// trace and span are the request's trace and its root span (traced
	// requests only); solveNS is the server's core.solve span time, known
	// once graftServerSpans has run.
	trace   *obs.RequestTrace
	span    *obs.Span
	solveNS int64
}

// do times one request and checks that its body embeds ref, the
// expected solution document, byte for byte.
func (c *serveClient) do(class, url string, body, ref []byte, traced bool) sample {
	s := sample{class: class, pool: -1, req: c.reqs.Add(1)}
	req := httptest.NewRequest("POST", url, bytes.NewReader(body))
	req.Header.Set("X-Incdes-Request-Id", requestID(s.req))
	rec := httptest.NewRecorder()
	if traced {
		s.trace = c.traces.start(s.req)
	}
	s.span = s.trace.Start(nil, "http."+class)
	t0 := time.Now()
	c.h.ServeHTTP(rec, req)
	s.ms = ms(time.Since(t0))
	s.span.End()
	switch {
	case rec.Code != http.StatusOK:
		s.err = fmt.Errorf("%s = %d: %.200s", url, rec.Code, rec.Body.String())
	case !embeds(rec.Body.Bytes(), ref):
		s.err = fmt.Errorf("%s: solution differs from the direct solve's", url)
	}
	return s
}

// graftServerSpans reads back the server's spans of each traced sample
// and grafts them under the sample's root span. It runs after a cycle,
// with the clients idle, so traced and untraced cycles differ only in
// the recording itself; the server keeps the span trees of its last
// serve.Config.DebugRequests requests, far more than a cycle issues.
func (c *serveClient) graftServerSpans(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.trace == nil {
			continue
		}
		spans := c.srv.RequestSpans(requestID(s.req))
		s.trace.AttachRemote(s.span, spans, nil)
		for _, sp := range spans {
			if sp.Name == "core.solve" && sp.DurationNS > 0 {
				s.solveNS += sp.DurationNS
			}
		}
	}
}

// embeds reports whether a job document's "solution" member is exactly
// ref.
func embeds(doc, ref []byte) bool {
	key := []byte(`"solution":`)
	i := bytes.Index(doc, key)
	if i < 0 {
		return false
	}
	rest := doc[i+len(key):]
	return bytes.HasPrefix(rest, ref) && len(rest) > len(ref) && (rest[len(ref)] == ',' || rest[len(ref)] == '}')
}

// op is one client operation of a cycle.
type op struct {
	class  string
	index  int    // pool index of a distinct request
	branch string // fresh branch of a commit chain
}

// cycleOps lays out one cycle: resubmits, distinct requests and commit
// chains interleaved evenly (each slot goes to the class furthest behind
// its share, ties to the earlier class).
func cycleOps(cycle, pool int) []op {
	classes := []string{"resubmit", "distinct", "commit"}
	want := []int{serveResubmits, serveDistinct, serveChains}
	n := serveResubmits + serveDistinct + serveChains
	got := make([]int, len(classes))
	ops := make([]op, 0, n)
	for i := 1; i <= n; i++ {
		best := -1
		for k := range classes {
			if got[k] == want[k] {
				continue
			}
			// Deficit of class k after i slots: want[k]*i/n - got[k].
			if best < 0 || want[k]*i-got[k]*n > want[best]*i-got[best]*n {
				best = k
			}
		}
		o := op{class: classes[best]}
		switch o.class {
		case "distinct":
			o.index = (cycle*serveDistinct + got[best]) % pool
		case "commit":
			o.branch = fmt.Sprintf("c%d-%d", cycle, got[best])
		}
		got[best]++
		ops = append(ops, o)
	}
	return ops
}

// serveRun holds one server and its open session.
type serveRun struct {
	cl      *serveClient
	in      *serveInputs
	session string
}

// setUpServe constructs the server, opens the session and creates the
// first cycle's branches: the program work before the first request.
func setUpServe(in *serveInputs) (*serveRun, error) {
	srv := serve.New(serve.Config{
		MaxConcurrent:     1,
		QueueDepth:        16,
		Parallelism:       1,
		SolutionCacheSize: serveCacheSize,
	})
	r := &serveRun{cl: &serveClient{h: srv.Handler(), srv: srv}, in: in}
	if err := r.openSession(); err != nil {
		srv.Close()
		return nil, err
	}
	if err := r.branches(0); err != nil {
		srv.Close()
		return nil, err
	}
	return r, nil
}

func (r *serveRun) openSession() error {
	var doc struct {
		ID string `json:"id"`
	}
	if err := r.cl.call("POST", "/v1/sessions", r.in.chain.baseJSON, http.StatusCreated, &doc); err != nil {
		return err
	}
	r.session = doc.ID
	return nil
}

// rotateSession replaces the session by a fresh one over the same base.
// Every commit adds a version and the session persists its whole
// document per commit, so without rotation commit cost would grow over a
// run; rotating every few cycles keeps the workload stationary.
func (r *serveRun) rotateSession() error {
	if err := r.cl.call("DELETE", "/v1/sessions/"+r.session, nil, http.StatusOK, nil); err != nil {
		return err
	}
	return r.openSession()
}

// branches creates the fresh branches of a cycle's commit chains.
func (r *serveRun) branches(cycle int) error {
	for _, o := range cycleOps(cycle, 1) {
		if o.class != "commit" {
			continue
		}
		url := fmt.Sprintf("/v1/sessions/%s/branches?name=%s&from=0", r.session, o.branch)
		if err := r.cl.call("POST", url, nil, http.StatusCreated, nil); err != nil {
			return err
		}
	}
	return nil
}

// issue runs one operation; a commit chain yields one sample per commit.
func (r *serveRun) issue(o op, traced bool) []sample {
	in := r.in
	switch o.class {
	case "resubmit":
		return []sample{r.cl.do(o.class, "/v1/solve?strategy="+serveStrategyParam, in.resubmit.body, in.resubmit.ref, traced)}
	case "distinct":
		s := r.cl.do(o.class, "/v1/solve?strategy="+serveStrategyParam, in.pool[o.index].body, in.pool[o.index].ref, traced)
		s.pool = o.index
		return []sample{s}
	}
	var out []sample
	for k, app := range in.chain.apps {
		url := fmt.Sprintf("/v1/sessions/%s/commits?branch=%s&strategy=%s&cache=off", r.session, o.branch, serveStrategyParam)
		s := r.cl.do(o.class, url, app, in.chain.refs[k], traced)
		out = append(out, s)
		if s.err != nil {
			// The rest of the chain cannot be committed: count it failed.
			for range in.chain.apps[k+1:] {
				out = append(out, sample{class: o.class, pool: -1, err: fmt.Errorf("chain %s aborted", o.branch)})
			}
			break
		}
	}
	return out
}

// cycle runs one cycle's operations on serveClients closed-loop clients
// and returns the samples and the wall time of the client phase.
func (r *serveRun) cycle(ops []op, traced bool) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				per[c] = append(per[c], r.issue(ops[i], traced)...)
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(t0)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, d
}

func counterDelta(after, before obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after.Counters {
		out[k] = v - before.Counters[k]
	}
	return out
}

// runServe runs serve-mixed: two closed-loop clients against the
// in-process handler at GOMAXPROCS 1, cycle after cycle until the
// measured time has passed. Between cycles, with the clients idle, the
// run times the reference kernel and, when one is due, a set-up batch,
// creates the next cycle's branches and, when traced, grafts the
// server's spans and replays the layers of the cycle's solves.
func runServe(cfg config, out io.Writer) (*result, error) {
	runtime.GOMAXPROCS(2)
	in, err := synthesizeServe(cfg.Seed, cfg.Tiny)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	resetPeakRSS()

	// Each set-up closes the server of the one before it, so at most one
	// spare server stays live and every sample runs against the same
	// heap. The run serves from the last set-up before the first request;
	// set-ups timed during the run build spares.
	var spare *serveRun
	setups, err := newSetupTimer(func() error {
		r, err := setUpServe(in)
		if err != nil {
			return err
		}
		if spare != nil {
			spare.cl.srv.Close()
		}
		spare = r
		return nil
	}, cfg.Seconds)
	defer func() {
		if spare != nil {
			spare.cl.srv.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	run := spare
	spare = nil
	defer run.cl.srv.Close()
	fmt.Fprintf(out, "serve-mixed: %d clients; per cycle %d resubmits, %d distinct (pool %d, cache %d), %d chains of %d commits\n",
		serveClients, serveResubmits, serveDistinct, len(in.pool), serveCacheSize, serveChains, len(in.chain.apps))

	res := &result{}
	lr := &layerRun{}
	if cfg.Trace {
		lr.traces = &traceLog{}
		run.cl.traces = lr.traces
	}
	ref := newRefKernel()
	lr.refs = append(lr.refs, ref.run())
	var lat []float64
	byClass := map[string][]float64{}
	var busy time.Duration
	served := 0
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	// Cycle 0 is an untimed warm-up: it fills the solution cache with the
	// resubmitted system and builds the session's first baseline.
	for cycle := 0; ; cycle++ {
		// Traced and untraced cycles alternate, with the phase flipped
		// every session, so both see each session age equally often.
		traced := cfg.Trace && cycle > 0 && (cycle+cycle/serveRotate)%2 == 0
		ops := cycleOps(cycle, len(in.pool))
		var before obs.Snapshot
		var m0 memDelta
		if traced {
			before = run.cl.srv.StatsSnapshot()
			m0 = readMem()
		}
		samples, d := run.cycle(ops, traced)
		if traced {
			lr.mem = lr.mem.add(readMem().since(m0))
			lr.memReqs += len(samples)
			lr.addCounters(counterDelta(run.cl.srv.StatsSnapshot(), before))
			run.cl.graftServerSpans(samples)
		}
		for _, s := range samples {
			res.Attempted++
			if s.err != nil {
				res.Failed++
				fmt.Fprintf(out, "FAIL %s request %d: %v\n", s.class, s.req, s.err)
				continue
			}
			if cycle == 0 {
				continue
			}
			switch {
			case traced:
				lr.latTraced = append(lr.latTraced, s.ms)
				lr.solveNS += float64(s.solveNS)
			default:
				lat = append(lat, s.ms)
				byClass[s.class] = append(byClass[s.class], s.ms)
			}
			if traced && s.pool >= 0 {
				target := in.pool[s.pool]
				items, bins, perEval, errs := target.target.replay(s.trace, nil, target.sol)
				if len(errs) > 0 {
					res.Failed++
					fmt.Fprintf(out, "FAIL replay of request %d: %v\n", s.req, errs)
				}
				lr.explainedNS += perEval * float64(target.sol.Evaluations-target.sol.CacheHits)
				lr.explainSolveNS += float64(s.solveNS)
				if !target.replayed {
					target.replayed = true
					lr.items += int64(items)
					lr.bins += int64(bins)
					lr.replayTargets++
				}
			}
		}
		if cycle > 0 && !traced {
			busy += d
			served += len(samples)
		}
		lr.refs = append(lr.refs, ref.run())
		if err := setups.maybe(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) && cycle >= 2 {
			break
		}
		if (cycle+1)%serveRotate == 0 {
			if err := run.rotateSession(); err != nil {
				return nil, err
			}
		}
		if err := run.branches(cycle + 1); err != nil {
			return nil, err
		}
	}

	var objectives []float64
	var evals int64
	objectives = append(objectives, in.resubmit.objective)
	evals += int64(in.resubmit.sol.Evaluations)
	for _, p := range in.pool {
		objectives = append(objectives, p.objective)
		evals += int64(p.sol.Evaluations)
	}
	objectives = append(objectives, in.chain.objectives...)
	for _, e := range in.chain.evals {
		evals += int64(e)
	}
	if cfg.Trace {
		lr.instances = len(objectives)
		lr.evals = evals
		lr.latPlain = lat
		lr.cacheHitRate = ratio(lr.ctr(obs.CtrSolveCacheHits),
			lr.ctr(obs.CtrSolveCacheHits)+lr.ctr(obs.CtrSolveCacheMisses)+lr.ctr(obs.CtrSolveCacheInflight))
		lr.baselineReuseRate = ratio(lr.ctr(obs.CtrSessBaselineReuses),
			lr.ctr(obs.CtrSessBaselineReuses)+lr.ctr(obs.CtrSessBaselineBuilds))
		res.Metrics = lr.metrics(out)
		if err := lr.traces.write(cfg.SpansOut); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(out, lat, objectives, setups.samples, bench.PeakRSS(), float64(served)/busy.Seconds())
		fmt.Fprintf(out, "  req_per_s over %d requests in %.2f s of client phases\n", served, busy.Seconds())
		printQuantile(out, "commit_p50_ms", byClass["commit"], 0.5, "ms")
		for _, class := range []string{"resubmit", "distinct", "commit"} {
			printQuantile(out, class+" p50", byClass[class], 0.5, "ms")
			printQuantile(out, class+" p90", byClass[class], 0.9, "ms")
		}
	}
	printQuantile(out, "host.ref_ms", lr.refs, 0.5, "ms")
	return res, nil
}
