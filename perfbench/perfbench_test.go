package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"incdes/internal/obs"
)

// declared is the part of BENCHMARK.json the tests check the output
// against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c declared
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	cfg := config{Workload: workload, Seed: 3, Seconds: 0.1, Trace: trace, Tiny: true}
	if trace {
		cfg.SpansOut = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkMetrics asserts that res reports exactly the named metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

// TestTinyRuns runs every declared workload at tiny size, plain
// and traced, twice each: no operation may fail, every metric must be
// reported with its unit, and the deterministic metrics must repeat.
func TestTinyRuns(t *testing.T) {
	c := readDeclared(t)
	for _, w := range c.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			plain := tinyRun(t, w.Name, false)
			checkMetrics(t, plain, c.EndToEnd)
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			traced := tinyRun(t, w.Name, true)
			checkMetrics(t, traced, c.PerLayer)
			if w.Name == "serve-mixed" {
				// Server spans are grafted after each traced cycle.
				for _, name := range []string{"serve.request_self_pct", "serve.core_solve_self_pct"} {
					if v := traced.Metrics[name].Value; v <= 0 {
						t.Errorf("%s = %v, want > 0", name, v)
					}
				}
			}

			plain2 := tinyRun(t, w.Name, false)
			traced2 := tinyRun(t, w.Name, true)
			if a, b := plain.Metrics["objective_mean"].Value, plain2.Metrics["objective_mean"].Value; a != b {
				t.Errorf("objective_mean differs between runs: %v vs %v", a, b)
			}
			for _, name := range []string{"core.evals_per_req", "pack.items", "pack.bins"} {
				if a, b := traced.Metrics[name].Value, traced2.Metrics[name].Value; a != b || a <= 0 {
					t.Errorf("%s: %v vs %v, want equal and positive", name, a, b)
				}
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0.5, 3}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(s, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if s[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanSnapshot{
		{ID: "a", Name: "root", StartNS: 0, DurationNS: 100},
		{ID: "b", Parent: "a", Name: "child", StartNS: 10, DurationNS: 30},
		{ID: "c", Parent: "a", Name: "child", StartNS: 30, DurationNS: 30}, // overlaps b
		{ID: "d", Parent: "c", Name: "leaf", StartNS: 35, DurationNS: 10},
		{ID: "e", Parent: "a", Name: "open", StartNS: 70, DurationNS: -1}, // unfinished
	}
	st := map[string]*selfStat{}
	addSelfTimes(st, spans)
	if got := st["root"].SelfNS; got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := st["child"].SelfNS; got != 30+20 {
		t.Errorf("child self = %d, want 50", got)
	}
	if got := st["leaf"].SelfNS; got != 10 {
		t.Errorf("leaf self = %d, want 10", got)
	}
	if st["open"] != nil {
		t.Error("unfinished span counted")
	}
}

func TestEmbeds(t *testing.T) {
	ref := []byte(`{"x":1}`)
	for _, tc := range []struct {
		doc  string
		want bool
	}{
		{`{"id":"j1","solution":{"x":1},"stats":{}}`, true},
		{`{"id":"j1","solution":{"x":1}}`, true},
		{`{"id":"j1","solution":{"x":12}}`, false},
		{`{"id":"j1"}`, false},
	} {
		if got := embeds([]byte(tc.doc), ref); got != tc.want {
			t.Errorf("embeds(%s) = %v, want %v", tc.doc, got, tc.want)
		}
	}
}

func TestCycleOps(t *testing.T) {
	ops := cycleOps(1, servePool)
	count := map[string]int{}
	branches := map[string]bool{}
	for _, o := range ops {
		count[o.class]++
		if o.class == "commit" {
			if branches[o.branch] {
				t.Errorf("branch %s reused within a cycle", o.branch)
			}
			branches[o.branch] = true
		}
	}
	if count["resubmit"] != serveResubmits || count["distinct"] != serveDistinct || count["commit"] != serveChains {
		t.Errorf("class counts %v", count)
	}
	if ops[0].class == ops[1].class && ops[1].class == ops[2].class {
		t.Errorf("classes not interleaved: %v", ops[:3])
	}
}
