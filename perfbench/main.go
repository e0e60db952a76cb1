// Command perfbench is the repository's benchmark. It runs one named
// workload of partitioning problems in a closed loop (one client, one
// problem in flight, the search serial), checks every result, and prints
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// traced pass, as one JSON object on the last line of standard output.
//
//	go run . -workload tables -seed 1 -seconds 10 -trace 0
//
// The problem stream is generated from the seed; the library sees only the
// generated inputs. BENCHMARK.json at the repository root describes the
// workloads and metrics; baseline.json beside this file records the seeds
// and what each layer metric should move.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1
	minSetups   = 3                      // set-ups per run, at least; setup_s is their median
	setupCPU    = 500 * time.Millisecond // set-ups continue until this much CPU time is spent
	maxReported = 5                      // failure messages printed per run
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "tables", "workload: tables, explore or session")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated problem stream")
	seconds := fs.Int("seconds", 10, "run length: sets the stream's size, one pass of which the run measures")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of a traced pass instead")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced pass writes its spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}

	// Set-up generates the stream. It is repeated for setupCPU, at least
	// minSetups times, so setup_s is a median of many.
	var stream []problem
	var setups []float64
	for begin := cpuTime(); len(setups) < minSetups || cpuTime()-begin < setupCPU; {
		t0 := cpuTime()
		stream = w.build(*seed, *seconds)
		setups = append(setups, (cpuTime() - t0).Seconds())
	}
	// Collect the set-ups' garbage now, so the measured pass does not pay
	// for it.
	runtime.GC()
	r := &runner{stream: stream, first: make([][]byte, len(stream))}
	fmt.Fprintf(stdout, "workload %s seed %d: %d problems per pass, stream digest %x\n",
		w.name, *seed, len(stream), streamDigest(stream))

	var metrics map[string]metric
	var err error
	if *trace == 1 {
		metrics, err = r.traced(*traceDir, fmt.Sprintf("%s-seed%d", w.name, *seed))
	} else {
		metrics, err = r.measured(stdout, median(setups))
	}
	fmt.Fprintf(stdout, "result digest %x\n", r.resultDigest())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range r.fails {
		fmt.Fprintf(stderr, "FAIL %s\n", f)
	}
	fmt.Fprintf(stdout, "failed_ratio %.4f (%d of %d problems)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// streamDigest hashes the generated inputs of one pass.
func streamDigest(stream []problem) []byte {
	h := sha256.New()
	for _, p := range stream {
		p.describe(h)
	}
	return h.Sum(nil)
}

// runner sends the stream's problems one at a time and checks each
// result. A problem run a second time, as the traced run does, must
// reproduce its first result exactly.
type runner struct {
	stream    []problem
	first     [][]byte // per-problem result digest of the first run
	attempted int
	failed    int
	fails     []string // the first maxReported failure messages
	latMS     []float64
	trials    int
}

func (r *runner) step(k int, tr *tracer) {
	p := r.stream[k]
	tr.beginProblem(p.name())
	o := p.run(tr)
	tr.endProblem()
	r.attempted++
	switch {
	case r.first[k] == nil:
		r.first[k] = o.digest
	case !bytes.Equal(r.first[k], o.digest):
		o.fails = append(o.fails, "result differs from the problem's first run")
	}
	if len(o.fails) > 0 {
		r.failed++
		if len(r.fails) < maxReported {
			r.fails = append(r.fails, p.name()+": "+strings.Join(o.fails, "; "))
		}
	}
	r.latMS = append(r.latMS, float64(o.latency.Nanoseconds())/1e6)
	r.trials += o.trials
}

// resultDigest hashes the per-problem results in stream order.
func (r *runner) resultDigest() []byte {
	h := sha256.New()
	for _, d := range r.first {
		h.Write(d)
	}
	return h.Sum(nil)
}

// measured runs one pass over the stream in a closed loop with tracing off
// and returns the end-to-end metrics.
func (r *runner) measured(stdout io.Writer, setupS float64) (map[string]metric, error) {
	start, cpu0 := time.Now(), cpuTime()
	for k := range r.stream {
		r.step(k, nil)
	}
	wall, cpu := time.Since(start).Seconds(), (cpuTime() - cpu0).Seconds()
	solved := float64(r.attempted - r.failed)
	p50, _, err := percentile(r.latMS, 0.5)
	if err != nil {
		return nil, err
	}
	p90, beyond, err := percentile(r.latMS, 0.9)
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("read peak RSS: %w", err)
	}
	fmt.Fprintf(stdout, "solve_ms over %d problems (%d beyond p90); %.1f CPU s in %.1f wall s, %.4g problems per wall s\n",
		len(r.latMS), beyond, cpu, wall, solved/wall)
	return map[string]metric{
		"problems_per_s": {solved / cpu, "1/s"},
		"solve_ms.p50":   {p50, "ms"},
		"solve_ms.p90":   {p90, "ms"},
		"trials_per_s":   {float64(r.trials) / cpu, "1/s"},
		"peak_rss_mb":    {float64(ru.Maxrss) / 1024, "MB"}, // Maxrss is in KiB on Linux
		"setup_s":        {setupS, "s"},
	}, nil
}

// traced runs the stream three times: with tracing off to warm up, traced,
// and with tracing off again as the reference the traced pass's overhead
// is measured against. It returns the per-layer metrics of the traced
// pass, whose spans and CPU profile are written to dir when it ends.
func (r *runner) traced(dir, stem string) (map[string]metric, error) {
	pass := func(tr *tracer) time.Duration {
		cpu0 := cpuTime()
		for k := range r.stream {
			r.step(k, tr)
		}
		return cpuTime() - cpu0
	}
	pass(nil)
	tr, err := startTracer()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	traced := pass(tr)
	wall := time.Since(start)
	tr.stop()
	untraced := pass(nil)
	if err := tr.write(dir, stem); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return tr.layerMetrics(wall, ratio(traced.Seconds(), untraced.Seconds())-1)
}

// cpuTime returns the CPU time the process has used on all its threads.
// The benchmark's rates and latencies are per CPU second, not per wall
// second: on the shared virtual machines it was built on, the hypervisor
// steals 5-20% of wall time, which moves wall-clock rates by up to 20%
// between identical runs, and CPU time leaves the stolen time out. GC
// workers count, so a change in allocation still shows.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail: valid who and pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
