package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 < q < 1) of raw samples by linear
// interpolation between closest ranks, the method of Python's
// statistics.quantiles(method="inclusive"). It never bins: a histogram
// with ten buckets per decade would be about 26% wide.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// mean is the arithmetic mean (NaN for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// printQuantile reports one percentile with the sample count beside it
// and how many samples lie beyond it; a tail percentile is trustworthy
// only with at least ten samples beyond it, and the line says so when
// there are fewer.
func printQuantile(out io.Writer, name string, samples []float64, q float64, unit string) float64 {
	v := quantile(samples, q)
	beyond := 0
	for _, s := range samples {
		if s > v {
			beyond++
		}
	}
	note := ""
	if q > 0.5 && beyond < 10 {
		note = " (fewer than 10 samples beyond: tail unreliable)"
	}
	fmt.Fprintf(out, "  %-22s %12.4f %-3s n=%d beyond=%d%s\n", name, v, unit, len(samples), beyond, note)
	return v
}

// refKernel is a fixed standard-library workload (sort, map and sha256;
// about 6 ms on a 2.1 GHz Xeon vCPU) timed between requests. Its median
// is the host.ref_ms diagnostic: how much work the host delivered per
// millisecond while the run was measured. It never enters an end-to-end
// metric.
type refKernel struct {
	ints []int
	buf  []int
	data []byte
	sink uint64
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(42))
	k := &refKernel{ints: make([]int, 40_000), data: make([]byte, 1<<20)}
	for i := range k.ints {
		k.ints[i] = rng.Int()
	}
	rng.Read(k.data)
	k.buf = make([]int, len(k.ints))
	return k
}

// run executes the kernel once and returns its wall time in ms.
func (k *refKernel) run() float64 {
	t0 := time.Now()
	copy(k.buf, k.ints)
	sort.Ints(k.buf)
	m := make(map[int]int, 10_000)
	for i, v := range k.buf[:10_000] {
		m[v] = i
	}
	acc := 0
	for _, v := range k.ints[:20_000] {
		acc += m[v]
	}
	sum := sha256.Sum256(k.data)
	k.sink += uint64(acc) + uint64(sum[0]) + uint64(k.buf[len(k.buf)/2])
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// memDelta brackets a measured region with runtime.MemStats reads.
type memDelta struct{ alloc, gc uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, gc: uint64(ms.NumGC)}
}

func (m memDelta) since(start memDelta) memDelta {
	return memDelta{alloc: m.alloc - start.alloc, gc: m.gc - start.gc}
}

func (m memDelta) add(o memDelta) memDelta {
	return memDelta{alloc: m.alloc + o.alloc, gc: m.gc + o.gc}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (a layer the workload never entered).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// resetPeakRSS returns the input synthesis's garbage to the OS and resets
// the kernel's peak-RSS mark (VmHWM) of this process, so peak_rss_mb
// covers set-up and the measured phase, not the synthesis that precedes
// them. Writing "5" to /proc/self/clear_refs is Linux's interface for
// this; where it is missing the mark is left alone and includes the
// synthesis, which only makes the metric less sensitive.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.WriteString("5") // best effort, as above
	f.Close()
}

// Set-up is timed in batches of setupBatch set-ups; a sample is the mean
// of one batch and setup_s is the median of setupSamples+1 samples: one
// before the first request, the rest spread evenly over the measured
// time, so that set-up, like latency, samples the host across the whole
// run rather than in the second before it. The collector runs before
// every set-up, untimed, so no collection falls inside one: timed that
// way, a set-up's cost varied with the heap the preceding work left, and
// its garbage, collected concurrently at GOMAXPROCS 1, nearly doubled
// the peak RSS of some runs. The first setupWarmup batches are not
// timed: after the input synthesis the heap has been returned to the OS,
// and until it has grown back each set-up also pays for page faults,
// whose cost varies with the host far more than the set-up work does.
const (
	setupWarmup  = 3
	setupSamples = 20
	setupBatch   = 10
)

// setupTimer times a workload's set-up function, which must be
// repeatable: every call redoes the whole set-up.
type setupTimer struct {
	fn       func() error
	samples  []float64 // seconds per set-up
	interval time.Duration
	next     time.Time
}

// newSetupTimer runs the warm-up batches and the first timed batch, the
// one before the first request; maybe times the rest during a run of
// the given length.
func newSetupTimer(fn func() error, seconds float64) (*setupTimer, error) {
	t := &setupTimer{fn: fn, interval: time.Duration(seconds / setupSamples * float64(time.Second))}
	for w := 0; w < setupWarmup; w++ {
		if _, err := t.batch(); err != nil {
			return nil, err
		}
	}
	if err := t.sample(); err != nil {
		return nil, err
	}
	return t, nil
}

// maybe times one batch if the interval since the last one has passed.
// Callers call it between requests, never while one is in flight.
func (t *setupTimer) maybe() error {
	if time.Now().Before(t.next) {
		return nil
	}
	return t.sample()
}

func (t *setupTimer) sample() error {
	d, err := t.batch()
	if err != nil {
		return err
	}
	t.samples = append(t.samples, d.Seconds()/setupBatch)
	t.next = time.Now().Add(t.interval)
	return nil
}

// batch returns the summed time of setupBatch set-ups, each after an
// untimed collection.
func (t *setupTimer) batch() (time.Duration, error) {
	var d time.Duration
	for k := 0; k < setupBatch; k++ {
		runtime.GC()
		t0 := time.Now()
		err := t.fn()
		d += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}
