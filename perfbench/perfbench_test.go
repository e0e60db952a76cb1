package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/experiments"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, err := percentile(xs, 0.9)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v, %d beyond, %v; want 90, 10 beyond", v, beyond, err)
	}
	if v, _, err := percentile(xs, 0.5); err != nil || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	_, beyond, err = percentile(xs[:99], 0.9)
	if err == nil || beyond != 9 || !strings.Contains(err.Error(), "only 9 of 99") {
		t.Fatalf("p90 of 99 samples: %d beyond, %v; want an error naming 9 of 99", beyond, err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples gave no error")
	}
}

func TestStreamIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamDigest(w.build(7, 1)), streamDigest(w.build(7, 1)), streamDigest(w.build(8, 1))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestFigureWantsMatchExperiments(t *testing.T) {
	for _, fig := range []struct {
		prefix                        string
		preds, unique, trials, points int
	}{{"fig7/", 714, 372, 121902, -1}, {"fig8/", 930, 207, 207, 207}} {
		var preds, unique, trials, points int
		for name, w := range figureWants {
			if strings.HasPrefix(name, fig.prefix) {
				preds, unique, trials, points = preds+w.preds, unique+w.unique, trials+w.trials, points+w.points
			}
		}
		if fig.points < 0 {
			points = -1
		}
		if preds != fig.preds || unique != fig.unique || trials != fig.trials || points != fig.points {
			t.Errorf("%s sums to %d/%d predictions, %d trials, %d points; EXPERIMENTS.md has %d/%d, %d, %d",
				fig.prefix, preds, unique, trials, points, fig.preds, fig.unique, fig.trials, fig.points)
		}
	}
}

// paperProblem is the cheapest Table 3/4 problem with its expectation.
func paperProblem(w want) *solve {
	e := experiments.New(1)
	return &solve{label: "exp1/1p/pkg2/E", p: e.Partitioning(1, 2), cfg: e.Cfg, h: core.Enumeration, want: &w}
}

func TestWrongExpectationIsCaught(t *testing.T) {
	right := tableWants["exp1/1p/pkg2/E"]
	if o := paperProblem(right).run(nil); len(o.fails) != 0 {
		t.Fatalf("the paper's own numbers fail: %v", o.fails)
	}
	wrong := right
	wrong.trials++
	r := &runner{stream: []problem{paperProblem(wrong)}, first: make([][]byte, 1)}
	r.step(0, nil)
	if r.failed != 1 || len(r.fails) != 1 || !strings.Contains(r.fails[0], "trials = 4, want 5") {
		t.Fatalf("wrong trial count: failed %d, messages %q", r.failed, r.fails)
	}
}

func TestCheckBestCatchesViolations(t *testing.T) {
	e := experiments.New(1)
	p := e.Partitioning(2, 2)
	res, _, err := core.Run(p, e.Cfg, core.Enumeration)
	if err != nil || len(res.Best) == 0 {
		t.Fatalf("no best design to tamper with: %v", err)
	}
	if fails := checkBest(p, e.Cfg.Constraints, res); len(fails) != 0 {
		t.Fatalf("untouched result fails: %v", fails)
	}
	for _, tc := range []struct {
		name   string
		tamper func(g *core.GlobalDesign)
		want   string
	}{
		{"pins", func(g *core.GlobalDesign) { g.ChipPins = []int{g.ChipPins[0], 85} }, "chip 2 uses 85 pins"},
		{"area", func(g *core.GlobalDesign) { g.ChipArea[0].Hi = 1e6 }, "chip 1 area"},
		{"perf", func(g *core.GlobalDesign) { g.IIMain *= 3; g.PerfNS = g.PerfNS.Scale(3) }, "performance"},
		{"delay", func(g *core.GlobalDesign) { g.DelayNS.Hi = g.DelayNS.Hi * 10 }, "delay"},
	} {
		g := res.Best[0]
		g.ChipPins = append([]int(nil), g.ChipPins...)
		g.ChipArea = append(g.ChipArea[:0:0], g.ChipArea...)
		tc.tamper(&g)
		bad := res
		bad.Best = []core.GlobalDesign{g}
		fails := checkBest(p, e.Cfg.Constraints, bad)
		if len(fails) == 0 || !strings.Contains(strings.Join(fails, ";"), tc.want) {
			t.Errorf("%s: checkBest = %q, want a failure naming %q", tc.name, fails, tc.want)
		}
	}
}

// TestCPUSharesAttributeToInnermostPackage profiles a loop in package dfg
// and expects the decoder to book its samples there.
func TestCPUSharesAttributeToInnermostPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start, i := time.Now(), int64(0); time.Since(start) < 500*time.Millisecond; i++ {
		dfg.RandomDAG(i, 4, 28, 16)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	// Under the race detector its own runtime takes much of the profile as
	// "other", so dfg need only lead the listed packages by far.
	for _, pkg := range cpuPackages {
		if pkg != "dfg" && shares[pkg] > shares["dfg"]/4 {
			t.Fatalf("%s share %v rivals dfg's %v: %v", pkg, shares[pkg], shares["dfg"], shares)
		}
	}
	if shares["dfg"] < 0.25 {
		t.Fatalf("dfg share %v, want most of the profile: %v", shares["dfg"], shares)
	}
}

// fixed is a problem with a set latency, for exercising the runner alone.
type fixed time.Duration

func (f fixed) name() string         { return "fixed" }
func (f fixed) describe(w io.Writer) {}
func (f fixed) run(*tracer) outcome {
	return outcome{latency: time.Duration(f), trials: 1, digest: []byte{1}}
}

// TestMetricsMatchBenchmarkJSON holds both runs' JSON metrics to the
// names BENCHMARK.json declares, so the two cannot drift apart.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	stream := make([]problem, 100)
	for i := range stream {
		stream[i] = fixed(time.Duration(i+1) * time.Millisecond)
	}
	r := &runner{stream: stream, first: make([][]byte, len(stream))}
	e2e, err := r.measured(io.Discard, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := startTracer()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	tr.stop()
	layers, err := tr.layerMetrics(time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", layers, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: the run reports %d metrics, BENCHMARK.json declares %d", c.name, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: %s in %s is reported as %+v (present %v)", c.name, w.Name, w.Unit, m, ok)
			}
		}
	}
}
