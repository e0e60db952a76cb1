package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/cosim"
	"chop/internal/experiments"
	"chop/internal/rtl"
	"chop/internal/spec"
)

// DefaultJobs maps the service's run kinds onto the pipeline:
//
//	eval   evaluate a partitioning spec (same JSON the CLI's -f takes)
//	synth  evaluate, then synthesize + co-simulate the fastest
//	       all-non-pipelined feasible design to Verilog
//	exp1   regenerate paper experiment 1 (Tables 3 and 4)
//	exp2   regenerate paper experiment 2 (Tables 5 and 6)
func DefaultJobs() map[string]Job {
	return map[string]Job{
		"eval":  {Run: evalJob, Validate: validateSpec},
		"synth": {Run: synthJob, Validate: validateSpec},
		"exp1":  {Run: expJob(1)},
		"exp2":  {Run: expJob(2)},
	}
}

// validateSpec parses the spec at submission time so malformed problems
// are rejected with 400 instead of becoming failed runs.
func validateSpec(raw json.RawMessage) error {
	if len(raw) == 0 {
		return fmt.Errorf("spec required for this run kind")
	}
	_, err := spec.Parse(raw)
	return err
}

// DesignSummary is the API form of one feasible non-inferior design.
type DesignSummary struct {
	IIMain    int     `json:"iiMain"`
	DelayMain int     `json:"delayMain"`
	ClockNS   float64 `json:"clockNS"`
	PerfNS    float64 `json:"perfNS"`
	DelayNS   float64 `json:"delayNS"`
}

// EvalResult is the result JSON of an eval run.
type EvalResult struct {
	Graph          string           `json:"graph"`
	Partitions     int              `json:"partitions"`
	Chips          int              `json:"chips"`
	Heuristic      string           `json:"heuristic"`
	Trials         int              `json:"trials"`
	FeasibleTrials int              `json:"feasibleTrials"`
	Feasible       bool             `json:"feasible"`
	Best           []DesignSummary  `json:"best,omitempty"`
	Rejects        map[string]int64 `json:"rejects,omitempty"`
	ElapsedMS      float64          `json:"elapsedMS"`
}

func evalJob(ctx context.Context, raw json.RawMessage, jc JobContext) (any, error) {
	res, _, prob, err := runSpec(ctx, raw, jc)
	if err != nil {
		return nil, err
	}
	return summarize(res, prob, jc), nil
}

// runSpec parses and runs a spec with the job's observability attached.
func runSpec(ctx context.Context, raw json.RawMessage, jc JobContext) (core.SearchResult, []bad.Result, *spec.Problem, error) {
	prob, err := spec.Parse(raw)
	if err != nil {
		return core.SearchResult{}, nil, nil, err
	}
	prob.Config.Ctx = ctx
	prob.Config.Trace = jc.Tracer
	prob.Config.Metrics = jc.Metrics
	prob.Config.Stats = jc.Stats
	prob.Config.Phases = jc.Phases
	prob.Config.Inject = jc.Inject
	if jc.Checkpoint != "" {
		// Resume is unconditional: a matching snapshot from an interrupted
		// earlier run continues it, anything else starts fresh.
		prob.Config.CheckpointPath = jc.Checkpoint
		prob.Config.Resume = true
	}
	if prob.Config.PredictCache == nil {
		// The spec didn't bring its own cache: share the server-wide one,
		// so repeated evaluations of the same partitions skip BAD.
		prob.Config.PredictCache = jc.Cache
	}
	res, preds, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	return res, preds, prob, err
}

// summarize reduces a search result to the API form, lifting the
// rejection-reason counters the run recorded on its private registry into
// the result so clients see why trials died without scraping /metrics.
func summarize(res core.SearchResult, prob *spec.Problem, jc JobContext) *EvalResult {
	out := &EvalResult{
		Graph:          prob.Partitioning.Graph.Name,
		Partitions:     prob.Partitioning.NumParts(),
		Chips:          len(prob.Partitioning.Chips.Chips),
		Heuristic:      prob.Heuristic.String(),
		Trials:         res.Trials,
		FeasibleTrials: res.FeasibleTrials,
		Feasible:       len(res.Best) > 0,
	}
	for _, b := range res.Best {
		out.Best = append(out.Best, DesignSummary{
			IIMain:    b.IIMain,
			DelayMain: b.DelayMain,
			ClockNS:   b.Clock.ML,
			PerfNS:    b.PerfNS.ML,
			DelayNS:   b.DelayNS.ML,
		})
	}
	snap := jc.Metrics.Snapshot()
	for k, v := range snap.Counters {
		if name, ok := strings.CutPrefix(k, "core.reject."); ok {
			if out.Rejects == nil {
				out.Rejects = make(map[string]int64)
			}
			out.Rejects[name] = v
		}
	}
	if h, ok := snap.Histograms["core.run_us"]; ok {
		out.ElapsedMS = h.Sum / 1e3
	}
	return out
}

// SynthResult is the result JSON of a synth run: the eval summary plus the
// verified structural Verilog of each partition.
type SynthResult struct {
	EvalResult
	Verified bool     `json:"verified"`
	Verilog  []string `json:"verilog"`
}

func synthJob(ctx context.Context, raw json.RawMessage, jc JobContext) (any, error) {
	res, _, prob, err := runSpec(ctx, raw, jc)
	if err != nil {
		return nil, err
	}
	summary := summarize(res, prob, jc)
	var chosen *core.GlobalDesign
	for i := range res.Best {
		ok := true
		for _, d := range res.Best[i].Choice {
			if d.Style != bad.NonPipelined {
				ok = false
				break
			}
		}
		if ok {
			chosen = &res.Best[i]
			break
		}
	}
	if chosen == nil {
		return nil, fmt.Errorf("synth: no feasible all-non-pipelined global design")
	}
	// Functional sign-off against the behavioral golden model before
	// emitting structure, as the CLI does.
	g := prob.Partitioning.Graph
	for seed := int64(1); seed <= 3; seed++ {
		inputs := map[string]int64{}
		for i, id := range g.Inputs() {
			inputs[g.Nodes[id].Name] = (seed*31 + int64(i)*17) % 97
		}
		if err := cosim.Verify(prob.Partitioning, prob.Config, chosen.Choice, inputs, nil); err != nil {
			return nil, fmt.Errorf("synth: verification failed: %w", err)
		}
	}
	out := &SynthResult{EvalResult: *summary, Verified: true}
	subs := prob.Partitioning.Subgraphs()
	for pi, d := range chosen.Choice {
		cyc := rtl.OpCyclesFor(d, prob.Config.Style.MultiCycle, prob.Config.Clocks.DatapathNS())
		nl, err := rtl.Bind(subs[pi], d, prob.Config.Lib, cyc)
		if err != nil {
			return nil, fmt.Errorf("synth: partition %d: %w", pi+1, err)
		}
		out.Verilog = append(out.Verilog, nl.Verilog(subs[pi]))
	}
	jc.Log.Info("synthesized design", "partitions", len(out.Verilog),
		"iiMain", chosen.IIMain, "delayMain", chosen.DelayMain)
	return out, nil
}

// ExpResult is the result JSON of an exp1/exp2 run: the paper's tables in
// machine-readable form.
type ExpResult struct {
	Experiment int                     `json:"experiment"`
	Name       string                  `json:"name"`
	Counts     []experiments.CountsRow `json:"counts"`
	Results    []experiments.ResultRow `json:"results"`
	// Tables carries the same data pre-rendered in the CLI's table layout.
	Tables map[string]string `json:"tables"`
}

func expJob(n int) JobFunc {
	return func(ctx context.Context, _ json.RawMessage, jc JobContext) (any, error) {
		e := experiments.New(n)
		e.Cfg.Ctx = ctx
		e.Cfg.Trace = jc.Tracer
		e.Cfg.Metrics = jc.Metrics
		e.Cfg.Stats = jc.Stats
		e.Cfg.Phases = jc.Phases
		e.Cfg.PredictCache = jc.Cache
		e.Cfg.Inject = jc.Inject
		counts, err := e.PredictionCounts()
		if err != nil {
			return nil, err
		}
		rows, err := e.Results()
		if err != nil {
			return nil, err
		}
		tn := 3
		if n == 2 {
			tn = 5
		}
		return &ExpResult{
			Experiment: n,
			Name:       e.Name,
			Counts:     counts,
			Results:    rows,
			Tables: map[string]string{
				fmt.Sprintf("table%d", tn):   experiments.FormatCounts(counts),
				fmt.Sprintf("table%d", tn+1): experiments.FormatResults(rows),
			},
		}, nil
	}
}
