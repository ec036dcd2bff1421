package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"incdes/internal/obs"
)

// traceLog keeps the request traces of a traced run, one
// obs.RequestTrace per benchmark request. The untraced run uses nil
// traces, whose Start returns nil spans and whose spans' End is a no-op,
// so the measured code paths are the same in both modes apart from the
// recording itself.
type traceLog struct {
	mu     sync.Mutex
	traces []*obs.RequestTrace
}

// start opens the trace of request req. Its ID is the request ID sent
// to the server, so server spans read back through
// serve.Server.RequestSpans graft under it with AttachRemote.
func (l *traceLog) start(req int64) *obs.RequestTrace {
	rt := obs.NewRequestTrace(requestID(req))
	l.mu.Lock()
	l.traces = append(l.traces, rt)
	l.mu.Unlock()
	return rt
}

// requestID is the correlation ID of benchmark request req.
func requestID(req int64) string { return "pb-" + strconv.FormatInt(req, 10) }

// spanLine is one line of the spans file: a span and its request.
type spanLine struct {
	Req string `json:"req"`
	obs.SpanSnapshot
}

// write stores every span as one JSON line.
func (l *traceLog) write(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rt := range l.traces {
		for _, s := range rt.Snapshot() {
			if err := enc.Encode(spanLine{Req: rt.ID(), SpanSnapshot: s}); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfStat accumulates the self time of every span of one name.
type selfStat struct {
	Count  int
	SelfNS int64
	DurNS  int64
}

// selfTimes returns, per span name, the summed duration and self time
// over every recorded request.
func (l *traceLog) selfTimes() map[string]*selfStat {
	out := map[string]*selfStat{}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rt := range l.traces {
		addSelfTimes(out, rt.Snapshot())
	}
	return out
}

// addSelfTimes adds the spans of one request to out: per span, its
// duration and its self time, the duration minus the part of it that
// its children cover. Unfinished spans are skipped.
func addSelfTimes(out map[string]*selfStat, spans []obs.SpanSnapshot) {
	children := map[string][][2]int64{}
	for _, s := range spans {
		if s.Parent != "" && s.DurationNS >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.StartNS + s.DurationNS})
		}
	}
	for _, s := range spans {
		if s.DurationNS < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &selfStat{}
			out[s.Name] = st
		}
		st.Count++
		st.DurNS += s.DurationNS
		st.SelfNS += s.DurationNS - covered(children[s.ID], s.StartNS, s.StartNS+s.DurationNS)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// meanSelfUS is the mean self time in microseconds of the named spans
// (0 when none were recorded).
func meanSelfUS(st map[string]*selfStat, name string) float64 {
	s := st[name]
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.SelfNS) / float64(s.Count) / 1e3
}
