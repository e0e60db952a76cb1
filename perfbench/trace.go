package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/obs"
)

// layer is a public entry point the benchmark calls and times.
type layer int

const (
	layerBAD    layer = iota // core.PredictPartitions
	layerSearch              // core.Search
	layerEdit                // an advisor.Session edit
	layerCheck               // advisor.Session.Check
	numLayers
)

var layerNames = [numLayers]string{"bad", "search", "edit", "check"}

// span is one timed call, relative to the start of the traced pass.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a problem's root span
	Name    string `json:"name"`
	Problem int    `json:"problem"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Allocs  uint64 `json:"allocs,omitempty"`
}

// tracer records spans and per-layer counts around the benchmark's calls
// into the library. A nil *tracer is the untraced run: every method
// reduces to calling the function it wraps.
type tracer struct {
	start   time.Time
	spans   []span
	problem int // index of the open problem span in spans
	m       *obs.Metrics
	ms      runtime.MemStats
	cpu     bytes.Buffer

	busy   [numLayers]time.Duration
	calls  [numLayers]int
	allocs [numLayers]uint64

	designs, kept       int
	trials, feasible    int
	hits, misses        int64
	edits, editRejected int
}

// startTracer begins a traced pass: spans, counters and a CPU profile.
func startTracer() (*tracer, error) {
	t := &tracer{start: time.Now(), m: obs.NewMetrics()}
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return t, nil
}

// stop ends the CPU profile.
func (t *tracer) stop() { pprof.StopCPUProfile() }

func (t *tracer) metrics() *obs.Metrics {
	if t == nil {
		return nil
	}
	return t.m
}

func (t *tracer) now() int64 { return time.Since(t.start).Nanoseconds() }

// beginProblem opens the root span of the next problem.
func (t *tracer) beginProblem(name string) {
	if t == nil {
		return
	}
	t.problem = len(t.spans)
	t.spans = append(t.spans, span{ID: t.problem + 1, Name: name, Problem: t.problem + 1, StartNS: t.now()})
}

func (t *tracer) endProblem() {
	if t == nil {
		return
	}
	t.spans[t.problem].EndNS = t.now()
}

// call runs f as one call into layer l, recording its span, wall time and
// heap allocations (runtime.ReadMemStats, exact at any call length).
func (t *tracer) call(l layer, f func()) {
	if t == nil {
		f()
		return
	}
	runtime.ReadMemStats(&t.ms)
	m0 := t.ms.Mallocs
	s := span{ID: len(t.spans) + 1, Parent: t.problem + 1, Name: layerNames[l], Problem: t.problem + 1}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&t.ms)
	s.StartNS = t0.Sub(t.start).Nanoseconds()
	s.EndNS = s.StartNS + d.Nanoseconds()
	s.Allocs = t.ms.Mallocs - m0
	t.spans = append(t.spans, s)
	t.busy[l] += d
	t.calls[l]++
	t.allocs[l] += s.Allocs
}

// check runs an advisor check, which predicts and searches inside the
// library. The span covers the whole check; its split into BAD and search
// time comes from the core timers of the obs.Metrics the traced pass
// attaches.
func (t *tracer) check(f func()) {
	if t == nil {
		f()
		return
	}
	const predictUS, searchUS = "core.predict_partitions_us", "core.search_us"
	before := t.m.Snapshot().Histograms
	t.call(layerCheck, f)
	after := t.m.Snapshot().Histograms
	for _, x := range []struct {
		l    layer
		name string
	}{{layerBAD, predictUS}, {layerSearch, searchUS}} {
		a, b := after[x.name], before[x.name]
		t.busy[x.l] += time.Duration((a.Sum - b.Sum) * 1e3)
		t.calls[x.l] += int(a.Count - b.Count)
	}
}

func (t *tracer) countBAD(preds []bad.Result) {
	if t == nil {
		return
	}
	for _, r := range preds {
		t.designs += r.Total
		t.kept += len(r.Designs)
	}
}

func (t *tracer) countSearch(res core.SearchResult) {
	if t == nil {
		return
	}
	t.trials += res.Trials
	t.feasible += res.FeasibleTrials
}

func (t *tracer) countCache(hits, misses int64) {
	if t == nil {
		return
	}
	t.hits += hits
	t.misses += misses
}

func (t *tracer) countEdit(edited, rejected bool) {
	if t == nil || !edited {
		return
	}
	t.edits++
	if rejected {
		t.editRejected++
	}
}

// layerMetrics turns the traced pass into the per-layer metrics. wall is
// the traced pass's wall time and overhead its extra CPU time over the
// same problems run with tracing off, as a share of the latter.
func (t *tracer) layerMetrics(wall time.Duration, overhead float64) (map[string]metric, error) {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	bad, search := t.busy[layerBAD], t.busy[layerSearch]
	m := map[string]metric{
		"bad.busy_s":              {sec(bad), "s"},
		"bad.share":               {ratio(sec(bad), sec(wall)), "ratio"},
		"bad.calls":               {float64(t.calls[layerBAD]), "count"},
		"bad.designs":             {float64(t.designs), "count"},
		"bad.designs_per_s":       {ratio(float64(t.designs), sec(bad)), "1/s"},
		"bad.kept_ratio":          {ratio(float64(t.kept), float64(t.designs)), "ratio"},
		"bad.allocs_per_design":   {ratio(float64(t.allocs[layerBAD]), float64(t.designs)), "count"},
		"bad.cache_hit_ratio":     {ratio(float64(t.hits), float64(t.hits+t.misses)), "ratio"},
		"search.busy_s":           {sec(search), "s"},
		"search.share":            {ratio(sec(search), sec(wall)), "ratio"},
		"search.trials":           {float64(t.trials), "count"},
		"search.trials_per_s":     {ratio(float64(t.trials), sec(search)), "1/s"},
		"search.feasible_ratio":   {ratio(float64(t.feasible), float64(t.trials)), "ratio"},
		"search.allocs_per_trial": {ratio(float64(t.allocs[layerSearch]), float64(t.trials)), "count"},
		"advisor.edit_busy_s":     {sec(t.busy[layerEdit]), "s"},
		"advisor.edits":           {float64(t.edits), "count"},
		"advisor.edits_rejected":  {float64(t.editRejected), "count"},
		"trace.overhead_ratio":    {overhead, "ratio"},
	}
	counters := t.m.Snapshot().Counters
	for r := core.ReasonNone + 1; ; r++ {
		name := r.String()
		if name == fmt.Sprintf("Reason(%d)", int(r)) {
			break
		}
		m["search.reject."+name] = metric{float64(counters["core.reject."+name]), "count"}
	}
	shares, err := cpuShares(t.cpu.Bytes())
	if err != nil {
		return nil, err
	}
	for pkg, v := range shares {
		m["cpu."+pkg] = metric{v, "ratio"}
	}
	return m, nil
}

// write saves the spans as JSON lines and the CPU profile beside them.
func (t *tracer) write(dir, stem string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), t.cpu.Bytes(), 0o644)
}
