package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"incdes/internal/obs"
)

// serveSpans are the server-side spans, read back through
// serve.Server.RequestSpans, whose self time serve-mixed reports as a
// share of the traced requests' total time. commit.replay is absent:
// it runs only on a commit served from the solution cache, and the
// commit class bypasses the cache.
var serveSpans = []string{
	"request", "queue.wait", "cache.lookup", "cache.flight", "core.solve",
	"session.commit", "commit.legality", "commit.freeze",
}

// serveShareName is the per-layer metric name of a server span's share.
func serveShareName(span string) string {
	return "serve." + strings.ReplaceAll(span, ".", "_") + "_self_pct"
}

// layerRun is everything a traced run gathered for the per-layer metrics.
type layerRun struct {
	// instances is the size of the instance set and evals is summed over
	// it, one value per instance; items and bins are summed over the
	// replayTargets distinct problems replayed, once each. Their means
	// therefore repeat exactly for a seed however many cycles a run
	// completes.
	instances     int
	evals         int64
	replayTargets int
	items         int64
	bins          int64

	counters map[string]int64 // obs catalog counters over traced solves
	solveNS  float64          // wall time of the traced solves
	// explainedNS is Σ (replayed per-evaluation time × evaluations that
	// ran the scheduler) over the replayed solves, and explainSolveNS
	// their measured solve time.
	explainedNS    float64
	explainSolveNS float64

	traces *traceLog

	cacheHitRate      float64
	baselineReuseRate float64

	mem     memDelta // allocation and GC counts over the traced requests
	memReqs int

	refs      []float64 // host.ref_ms samples
	latPlain  []float64 // untraced latencies of the traced run, ms
	latTraced []float64 // traced latencies, ms
}

func (l *layerRun) addCounters(c map[string]int64) {
	if l.counters == nil {
		l.counters = map[string]int64{}
	}
	for k, v := range c {
		l.counters[k] += v
	}
}

func (l *layerRun) ctr(name string) float64 { return float64(l.counters[name]) }

// metrics assembles the per-layer metric set and prints the span table,
// the unexplained share and the tracing overhead to out.
func (l *layerRun) metrics(out io.Writer) map[string]metric {
	st := l.traces.selfTimes()
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	set("core.evals_per_req", ratio(float64(l.evals), float64(l.instances)), "count")
	set("core.evals_per_s", ratio(l.ctr(obs.CtrEvaluations), l.solveNS/1e9), "1/s")
	set("core.memo_hit_rate", ratio(l.ctr(obs.CtrCacheHits), l.ctr(obs.CtrEvaluations)), "ratio")
	set("core.infeasible_rate", ratio(l.ctr(obs.CtrInfeasible), l.ctr(obs.CtrCacheMisses)), "ratio")
	set("core.txn_full_rate", ratio(l.ctr(obs.CtrTxnFull), l.ctr(obs.CtrTxnFull)+l.ctr(obs.CtrTxnIncremental)), "ratio")

	set("pack.c1p_us", meanSelfUS(st, "pack.c1p"), "us")
	set("pack.c1m_us", meanSelfUS(st, "pack.c1m"), "us")
	set("pack.items", ratio(float64(l.items), float64(l.replayTargets)), "count")
	set("pack.bins", ratio(float64(l.bins), float64(l.replayTargets)), "count")
	set("slack.processor_us", meanSelfUS(st, "slack.processor"), "us")
	set("slack.window_us", meanSelfUS(st, "slack.window"), "us")

	set("sched.apply_us", meanSelfUS(st, "sched.apply")+meanSelfUS(st, "sched.rollback"), "us")
	set("sched.jobs_per_eval", ratio(l.ctr(obs.CtrSchedJobs), l.ctr(obs.CtrSchedCalls)), "count")
	set("sched.fail_rate", ratio(l.ctr(obs.CtrSchedFailures), l.ctr(obs.CtrSchedCalls)), "ratio")
	set("ttp.probes_per_find", ratio(l.ctr(obs.CtrTTPProbes), l.ctr(obs.CtrTTPFindSlot)), "count")

	set("metrics.eval_txn_us", meanSelfUS(st, "metrics.eval_txn"), "us")
	set("metrics.baseline_ms", meanSelfUS(st, "metrics.baseline")/1e3, "ms")
	set("model.decode_ms", meanSelfUS(st, "model.decode")/1e3, "ms")
	set("cache.fingerprint_us", meanSelfUS(st, "cache.fingerprint"), "us")
	set("cache.hit_rate", l.cacheHitRate, "ratio")
	set("session.baseline_reuse_rate", l.baselineReuseRate, "ratio")
	// Server spans: self time as a share of the server's request spans.
	var requestNS float64
	if s := st["request"]; s != nil {
		requestNS = float64(s.DurNS)
	}
	for _, name := range serveSpans {
		var self float64
		if s := st[name]; s != nil {
			self = float64(s.SelfNS)
		}
		set(serveShareName(name), 100*ratio(self, requestNS), "%")
	}

	set("runtime.alloc_kb_per_req", ratio(float64(l.mem.alloc)/1024, float64(l.memReqs)), "KiB")
	set("runtime.gc_per_req", ratio(float64(l.mem.gc), float64(l.memReqs)), "count")
	set("host.ref_ms", median(l.refs), "ms")

	unexplained := 1 - ratio(l.explainedNS, l.explainSolveNS)
	set("trace.unexplained_share", unexplained, "ratio")
	plain, traced := median(l.latPlain), median(l.latTraced)
	overhead := 100 * (traced/plain - 1)
	set("trace.overhead_pct", overhead, "%")

	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(out, "spans (self time per span):")
	for _, name := range names {
		s := st[name]
		fmt.Fprintf(out, "  %-22s n=%-7d self=%12.1f us  total=%12.1f us\n",
			name, s.Count, float64(s.SelfNS)/float64(s.Count)/1e3, float64(s.DurNS)/float64(s.Count)/1e3)
	}
	fmt.Fprintln(out, "latency, untraced vs traced cycles of this run:")
	printQuantile(out, "untraced p50", l.latPlain, 0.5, "ms")
	printQuantile(out, "traced p50", l.latTraced, 0.5, "ms")
	fmt.Fprintf(out, "tracing overhead on latency_p50_ms: %+.2f%%\n", overhead)
	fmt.Fprintf(out, "solve time not explained by the replayed layers: %.3f (1 - %.0f ms / %.0f ms)\n",
		unexplained, l.explainedNS/1e6, l.explainSolveNS/1e6)
	return m
}

// endToEnd assembles the metrics every workload reports untraced.
func endToEnd(out io.Writer, lat, objectives, setups []float64, peakRSS int64, reqPerS float64) map[string]metric {
	fmt.Fprintln(out, "end-to-end:")
	m := map[string]metric{
		"latency_p50_ms": {printQuantile(out, "latency_p50_ms", lat, 0.5, "ms"), "ms"},
		"latency_p90_ms": {printQuantile(out, "latency_p90_ms", lat, 0.9, "ms"), "ms"},
		"objective_mean": {mean(objectives), "C"},
		"setup_s":        {median(setups), "s"},
		"peak_rss_mb":    {float64(peakRSS) / 1e6, "MB"},
		"req_per_s":      {reqPerS, "1/s"},
	}
	fmt.Fprintf(out, "  objective_mean %.6f over %d instances; req_per_s %.2f\n",
		m["objective_mean"].Value, len(objectives), reqPerS)
	printQuantile(out, "setup_s", setups, 0.5, "s")
	return m
}
