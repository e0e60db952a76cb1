package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/stats"
)

// TestRunPreCanceledContext: a context cancelled before the run starts
// stops the pipeline at the first boundary with a wrapped context error.
func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, h := range []Heuristic{Enumeration, Iterative} {
		cfg := exp1Config()
		cfg.Ctx = ctx
		_, _, err := Run(arPartitioning(t, 2, 1), cfg, h)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", h, err)
		}
	}
}

// TestSearchMidRunCancel cancels from inside the trial loop (via a tracer
// hook on the first trial event) and checks the search stops early instead
// of enumerating the whole space.
func TestSearchMidRunCancel(t *testing.T) {
	p := arPartitioning(t, 3, 1)
	cfg := exp1Config()

	// Baseline trial count without cancellation.
	full, _, err := Run(p, cfg, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if full.Trials < 10 {
		t.Skipf("space too small to observe early stop (%d trials)", full.Trials)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	trials := 0
	cfg.Trace = obs.New(obs.PushSink(func(ev obs.Event) {
		if ev.Kind == obs.KindPoint && ev.Name == "trial" {
			trials++
			if trials == 3 {
				cancel()
			}
		}
	}))
	res, _, err := Run(p, cfg, Enumeration)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Trials >= full.Trials {
		t.Fatalf("cancelled run examined %d trials, full run %d — no early stop", res.Trials, full.Trials)
	}
}

// TestDeadlineExpiresDuringSearch uses an already-expired deadline.
func TestDeadlineExpiresDuringSearch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	cfg := exp2Config()
	cfg.Ctx = ctx
	_, err := Search(arPartitioning(t, 2, 1), cfg, mustPredict(t, 2), Iterative)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// mustPredict produces predictions without a context so the cancellation
// under test hits the search stage, not the prediction stage.
func mustPredict(t *testing.T, n int) []bad.Result {
	t.Helper()
	preds, err := PredictPartitions(arPartitioning(t, n, 1), exp2Config())
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

// stressCancelProblem builds the benchkit-style layered stress problem
// (6x20 alternating add/mul levels on 3 chips) with a fixed-size
// enumeration space: a KeepAll prediction truncated to stressDesigns
// designs per partition, a 125000-combination search that runs long
// enough to cancel mid-flight on any machine.
func stressCancelProblem(t *testing.T) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	const levels, width, bits = 6, 20, 16
	g := dfg.New("stress-cancel")
	prev := make([]int, width)
	for i := range prev {
		prev[i] = g.AddNode(fmt.Sprintf("in%d", i), dfg.OpInput, bits)
	}
	for l := 0; l < levels; l++ {
		op := dfg.OpAdd
		if l%2 == 1 {
			op = dfg.OpMul
		}
		cur := make([]int, width)
		for i := 0; i < width; i++ {
			id := g.AddNode(fmt.Sprintf("n%d_%d", l, i), op, bits)
			g.MustConnect(prev[i], id)
			g.MustConnect(prev[(i+1)%width], id)
			cur[i] = id
		}
		prev = cur
	}
	for i, id := range prev {
		g.MustConnect(id, g.AddNode(fmt.Sprintf("out%d", i), dfg.OpOutput, bits))
	}
	const parts = 3
	p := &Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, parts),
		PartChip: []int{0, 1, 2},
		Chips:    chip.NewUniformSet(parts, chip.MOSISPackages()[1], 4),
	}
	cfg := Config{
		Lib:    lib.ExtendedLibrary(),
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: Constraints{
			Perf:  stats.Constraint{Bound: 300000, MinProb: 1},
			Delay: stats.Constraint{Bound: 300000, MinProb: 0.8},
		},
		KeepAll: true,
	}
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if len(preds[i].Designs) > stressDesigns {
			preds[i].Designs = preds[i].Designs[:stressDesigns]
		}
	}
	cfg.KeepAll = false
	return p, cfg, preds
}

// stressDesigns is the per-partition design count of the stress problem.
const stressDesigns = 50

// TestCancelStressReturnsQuickly: cancelling mid-search on the stress
// problem must return within 100ms of the cancel — with one inline worker
// and with a pool of eight alike — with a partial, bounded trial count and
// a wrapped context error.
func TestCancelStressReturnsQuickly(t *testing.T) {
	p, cfg, preds := stressCancelProblem(t)
	const space = stressDesigns * stressDesigns * stressDesigns
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wcfg := cfg
			wcfg.Ctx = ctx
			wcfg.Workers = workers
			type out struct {
				res SearchResult
				err error
			}
			done := make(chan out, 1)
			go func() {
				res, err := Search(p, wcfg, preds, Enumeration)
				done <- out{res, err}
			}()
			// Let the search get into the trial loop, then pull the plug.
			time.Sleep(20 * time.Millisecond)
			select {
			case o := <-done:
				t.Skipf("search finished before cancellation (%d trials, err %v); machine too fast for this timing test", o.res.Trials, o.err)
			default:
			}
			cancel()
			start := time.Now()
			select {
			case o := <-done:
				if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
					t.Fatalf("search returned %v after cancel, want <100ms", elapsed)
				}
				if !errors.Is(o.err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", o.err)
				}
				if o.res.Trials > space {
					t.Fatalf("cancelled run counted %d trials, space is %d", o.res.Trials, space)
				}
				if o.res.Trials == space {
					t.Skipf("search finished before cancellation (%d trials); machine too fast for this timing test", space)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("search did not return after cancellation")
			}
		})
	}
}
