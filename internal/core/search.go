package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"chop/internal/bad"
	"chop/internal/obs"
)

// Heuristic selects the combination-search strategy (paper section 2.4:
// "the designer may choose between two separate heuristics at run-time").
type Heuristic int

// The two heuristics of the paper.
const (
	// Enumeration explicitly enumerates all combinations of per-partition
	// predicted implementations ("E" in the paper's tables).
	Enumeration Heuristic = iota
	// Iterative is the Figure-5 algorithm: for each feasible initiation
	// interval start from the fastest implementations and serialize
	// partitions on area-violating chips ("I" in the tables).
	Iterative
)

func (h Heuristic) String() string {
	switch h {
	case Enumeration:
		return "E"
	case Iterative:
		return "I"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// SpacePoint is one explored global design point, recorded when pruning is
// disabled (the dots of paper Figs. 7 and 8).
type SpacePoint struct {
	AreaML   float64 // total most-likely silicon area, square mils
	DelayNS  float64 // most-likely system delay, ns
	IIMain   int     // system initiation interval, main cycles
	Feasible bool
}

// SearchResult aggregates one heuristic run over a partitioning.
type SearchResult struct {
	Heuristic Heuristic
	// Trials counts the global implementation combinations examined (the
	// "Partitioning Imp. Trials" column); FeasibleTrials those found
	// feasible (the "Feasible Trials" column).
	Trials, FeasibleTrials int
	// Best holds the non-inferior feasible global designs, fastest first.
	Best []GlobalDesign
	// Space holds every explored point when Config.KeepAll is set.
	Space []SpacePoint
}

// maxCombinations is the default guard of the explicit enumeration against
// explosive inputs; override with Config.MaxCombinations.
const maxCombinations = 5_000_000

// combinationLimit resolves the enumeration guard for a run.
func combinationLimit(cfg Config) int {
	if cfg.MaxCombinations > 0 {
		return cfg.MaxCombinations
	}
	return maxCombinations
}

// Search runs the selected heuristic over per-partition predictions
// produced by PredictPartitions.
func Search(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) (SearchResult, error) {
	return search(p, cfg, preds, h, nil)
}

// search is Search with an optional parent span, so the stage nests under
// Run when reached through it.
func search(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, parent *obs.Span) (SearchResult, error) {
	it, err := newIntegrator(p, cfg)
	if err != nil {
		return SearchResult{}, err
	}
	// Link the phase accounter into the live stats so run snapshots carry
	// the per-phase breakdown (first attachment wins).
	cfg.Stats.AttachPhases(cfg.Phases)
	// Attach the predictor-cache sampler to the live stats (first call
	// wins, so reaching search through Run keeps Run's earlier baseline).
	if cfg.Stats != nil && cfg.PredictCache != nil {
		cache := cfg.PredictCache
		cfg.Stats.SetCacheStatsFunc(func() (int64, int64) {
			cs := cache.Stats()
			return cs.Hits, cs.Misses
		})
	}
	sp := obs.SpanUnder(cfg.Trace, parent, "Search",
		obs.F("heuristic", h.String()), obs.F("workers", cfg.searchWorkers()))
	defer cfg.Metrics.Timer("core.search_us")()
	var res SearchResult
	var e *engine
	// The engine runs under run/phase pprof labels, so a CPU profile
	// sampled during the search slices by run and stage; workers inherit
	// the labels through cfg.Ctx.
	obs.DoLabeled(cfg.Ctx, func(ctx context.Context) {
		cfg.Ctx = ctx
		if e, err = newEngine(cfg, preds, h, 0); err == nil {
			e.it, e.sp = it, sp
			res, err = e.searchAll(p)
		}
	}, "run", cfg.Stats.Label(), "phase", "search", "trace", cfg.Trace.TraceID())
	if e == nil {
		sp.End(obs.F("error", err.Error()))
		return SearchResult{}, err
	}
	emitPhases(cfg, sp)
	sp.End(obs.F("trials", res.Trials), obs.F("feasible", res.FeasibleTrials),
		obs.F("best", len(res.Best)))
	return res, err
}

// searchAll plans, drains and merges a whole search: every shard not
// restored from a checkpoint runs, then all merge in shard order.
func (e *engine) searchAll(p *Partitioning) (SearchResult, error) {
	cfg := e.cfg
	res := SearchResult{Heuristic: e.plan.Heuristic}
	if e.sp != nil && e.plan.Shards > 0 {
		// Announce the space size so live consumers (the -progress sink)
		// can report trials as a fraction of the whole.
		if e.plan.Heuristic == Enumeration {
			e.sp.Point("space", obs.F("combinations", e.plan.Total))
		} else {
			e.sp.Point("space", obs.F("intervals", e.plan.Shards))
		}
	}
	total := 0
	if e.plan.Heuristic == Enumeration {
		total = e.plan.Total
	}
	cfg.Stats.StartSearch(e.plan.Shards, int64(total))
	cfg.Phases.StartSearch(e.plan.Shards)
	outs := make([]shardOut, e.plan.Shards)
	var restored map[int]*SearchResult
	if cfg.CheckpointPath != "" {
		if err := e.sign(p); err != nil {
			return res, err
		}
		e.cp, restored = OpenCheckpointer(cfg, e.plan, e.sp)
	}
	order := make([]int, 0, e.plan.Shards)
	for si := range outs {
		r, ok := restored[si]
		if !ok {
			order = append(order, si)
			continue
		}
		outs[si].res = *r
		cfg.Stats.ShardStats(si).Restored(int64(r.Trials), int64(r.FeasibleTrials))
	}
	// One worker without a checkpoint has no use for per-shard results:
	// its shards book straight into res, in visit order.
	var into *SearchResult
	if e.cp == nil && cfg.searchWorkers() == 1 {
		into = &res
	}
	e.drain(order, outs, into)
	if err := mergeShards(&res, outs); err != nil {
		return res, err
	}
	finishSearch(&res)
	e.cp.Finish()
	return res, nil
}

// emitPhases records the accounter's cumulative per-phase totals as a
// "phases" trace point at search end, so `chop explain -stats` can replay
// the attribution offline. Totals are cumulative across searches on one
// accounter; replay keeps the last point per run.
func emitPhases(cfg Config, sp *obs.Span) {
	if cfg.Phases == nil || sp == nil {
		return
	}
	snap := cfg.Phases.Snapshot()
	fields := []obs.Field{obs.F("trialNS", snap.TrialNS), obs.F("trials", snap.Trials)}
	for _, p := range snap.Phases {
		fields = append(fields, obs.F(p.Phase, p.NS))
	}
	sp.Point("phases", fields...)
}

// Run is the convenience entry point: predict every partition with BAD,
// then search with the chosen heuristic. It returns both the search result
// and the per-partition prediction statistics (paper Tables 3/5).
func Run(p *Partitioning, cfg Config, h Heuristic) (SearchResult, []bad.Result, error) {
	fields := []obs.Field{obs.F("heuristic", h.String()), obs.F("partitions", len(p.Parts))}
	if p.Graph != nil {
		fields = append(fields, obs.F("graph", p.Graph.Name))
	}
	root := cfg.Trace.Span("Run", fields...)
	defer root.End()
	defer cfg.Metrics.Timer("core.run_us")()
	// Baseline the cache sampler before the predictions that use it, so the
	// reported hit rate covers this run's own predictor work.
	if cfg.Stats != nil && cfg.PredictCache != nil {
		cache := cfg.PredictCache
		cfg.Stats.SetCacheStatsFunc(func() (int64, int64) {
			cs := cache.Stats()
			return cs.Hits, cs.Misses
		})
	}
	preds, err := predictPartitions(p, cfg, root)
	if err != nil {
		return SearchResult{}, nil, err
	}
	res, err := search(p, cfg, preds, h, root)
	return res, preds, err
}

// enumSpaceSize multiplies the per-partition design-list lengths into the
// combination count, enforcing the MaxCombinations guard. A zero return
// with nil error marks an empty search space (some partition has no viable
// prediction, so every combination is infeasible).
func enumSpaceSize(cfg Config, lists [][]bad.Design) (int, error) {
	limit := combinationLimit(cfg)
	total := 1
	for li, l := range lists {
		if len(l) == 0 {
			return 0, nil
		}
		if total > limit/len(l) {
			return 0, fmt.Errorf(
				"core: enumeration space exceeds %d combinations (at least %d after %d of %d partitions); enable pruning or raise Config.MaxCombinations",
				limit, int64(total)*int64(len(l)), li+1, len(lists))
		}
		total *= len(l)
	}
	return total, nil
}

// enumTrial evaluates the combination named by s.idx. The choice scratch
// is decoded in place (no allocation); it is copied only when the
// evaluated design leaves the search (record).
func (s *shard) enumTrial() error {
	for i, j := range s.idx {
		s.choice[i] = s.lists[i][j]
	}
	// The system interval is set by the slowest partition implementation
	// in the combination.
	l := 0
	for _, d := range s.choice {
		if ii := d.IIMainCycles(s.cfg.Clocks); ii > l {
			l = ii
		}
	}
	_, err := s.trial(s.choice, l)
	return err
}

// trial evaluates one combination at system interval l and books it into
// the shard's result. The returned design's slices are the shard's trial
// scratch, valid until its next trial.
func (s *shard) trial(choice []bad.Design, l int) (*GlobalDesign, error) {
	s.res.Trials++
	g, err := s.it.evalTrial(s.sc, s.sp, s.ss, s.ph, choice, l)
	if err != nil {
		return g, err
	}
	record(s.res, s.cfg, g, s.sp)
	return g, nil
}

// advanceOdometer steps idx to the next combination (last digit fastest)
// and reports whether one exists.
func advanceOdometer(idx []int, lists [][]bad.Design) bool {
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < len(lists[i]) {
			return true
		}
		idx[i] = 0
	}
	return false
}

// iterativeIntervals computes the candidate system initiation intervals:
// every distinct II offered by any partition that is not below the floor
// imposed by the slowest partition's fastest design, bounded by the
// performance constraint. Ascending, so faster designs are tried first.
func iterativeIntervals(cfg Config, lists [][]bad.Design) []int {
	floor := 0
	for _, list := range lists {
		min := list[0].IIMainCycles(cfg.Clocks)
		for _, d := range list[1:] {
			if ii := d.IIMainCycles(cfg.Clocks); ii < min {
				min = ii
			}
		}
		if min > floor {
			floor = min
		}
	}
	cand := map[int]bool{}
	for _, list := range lists {
		for _, d := range list {
			ii := d.IIMainCycles(cfg.Clocks)
			if ii >= floor {
				cand[ii] = true
			}
		}
	}
	var intervals []int
	for l := range cand {
		if b := cfg.Constraints.Perf; b.Bound > 0 && float64(l)*cfg.Clocks.MainNS > b.Bound {
			continue // even the unadjusted clock busts the bound
		}
		intervals = append(intervals, l)
	}
	sort.Ints(intervals)
	return intervals
}

// iterate runs the paper's Figure-5 serialization loop for one candidate
// system interval, booking every examined trial into the shard's result.
// The loop for one interval is independent of every other interval's,
// which is what makes intervals the iterative heuristic's shards.
func (s *shard) iterate(l int) error {
	lists, cfg := s.lists, s.cfg
	// Initialize W_i to the fastest valid implementation at interval l
	// (paper: advance each W_i until L_i >= l or W_i is non-pipelined
	// with L_i <= l).
	w := make([]int, len(lists))
	for i, list := range lists {
		w[i] = nextValid(list, -1, l, cfg)
		if w[i] < 0 {
			return nil
		}
	}
	for {
		if err := s.interrupted(); err != nil {
			return err
		}
		pick(s.choice, lists, w)
		g, err := s.trial(s.choice, l)
		if err != nil {
			return err
		}
		if g.Feasible {
			return nil // Q := nil
		}
		// Q: partitions residing on chips whose area constraint was
		// violated by the last integration prediction (read before the
		// next trial reuses g's scratch).
		q := partitionsOnChips(s.it.p, g.AreaViolations)
		if len(q) == 0 {
			return nil
		}
		// Tentatively serialize each candidate and keep the one whose
		// expected system delay (via urgency scheduling) is minimal.
		bestQ, bestDelay := -1, 0
		for _, pi := range q {
			ni := nextValid(lists[pi], w[pi], l, cfg)
			if ni < 0 {
				continue
			}
			pick(s.choice, lists, w)
			s.choice[pi] = lists[pi][ni]
			tg, err := s.trial(s.choice, l)
			if err != nil {
				return err
			}
			if bestQ < 0 || tg.DelayMain < bestDelay {
				bestQ, bestDelay = pi, tg.DelayMain
			}
		}
		if bestQ < 0 {
			return nil // no partition can be serialized further
		}
		// The Figure-5 serialization step: slow down bestQ's partition
		// to shrink its area footprint on the violating chip.
		if s.sp != nil {
			s.sp.Point("serialize", obs.F("ii", l),
				obs.F("partition", bestQ+1), obs.F("delay", bestDelay))
		}
		if cfg.Metrics != nil {
			cfg.Metrics.Inc("core.serializations")
		}
		w[bestQ] = nextValid(lists[bestQ], w[bestQ], l, cfg)
	}
}

// nextValid returns the index of the first design after `from` that is
// selectable at system interval l, or -1.
func nextValid(list []bad.Design, from, l int, cfg Config) int {
	for i := from + 1; i < len(list); i++ {
		if selectionOK(&list[i], l, cfg.Clocks) {
			return i
		}
	}
	return -1
}

// partitionsOnChips returns the partitions residing on any of the given
// chips, in ascending order.
func partitionsOnChips(p *Partitioning, chips []int) []int {
	onChip := map[int]bool{}
	for _, c := range chips {
		onChip[c] = true
	}
	var out []int
	for pi, ci := range p.PartChip {
		if onChip[ci] {
			out = append(out, pi)
		}
	}
	return out
}

// pick writes the designs w selects into choice.
func pick(choice []bad.Design, lists [][]bad.Design, w []int) {
	for i, j := range w {
		choice[i] = lists[i][j]
	}
}

// record books a trial into the search result, applying level-2 pruning:
// infeasible global predictions are discarded immediately unless KeepAll.
// The pruning decision is emitted as a trace event when tracing is on. A
// feasible design joins Best only when no kept design is as good (see
// admitBest), and then it leaves the search, so it is the one that gets
// its own copies of the trial's slices.
//
// record always appends to a single-goroutine result: a one-worker
// search's one SearchResult, or a shard's private buffer (see mergeShards).
// KeepAll runs therefore never interleave Space appends across shards, and
// no mutex guards the result.
func record(res *SearchResult, cfg Config, g *GlobalDesign, sp *obs.Span) {
	if g.Feasible {
		res.FeasibleTrials++
		if res.admitBest(g) {
			res.Best = append(res.Best, g.own())
		}
	} else if sp != nil && !cfg.KeepAll {
		sp.Point("prune", obs.F("reason", g.ReasonCode.String()))
	}
	// Early-rejected combinations (rate mismatch, data clash) never reach
	// the area/delay predictions and contribute no point to the figures.
	if cfg.KeepAll && len(g.ChipArea) > 0 {
		res.Space = append(res.Space, SpacePoint{
			AreaML:   g.TotalArea(),
			DelayNS:  g.DelayNS.ML,
			IIMain:   g.IIMain,
			Feasible: g.Feasible,
		})
	}
}

// admitBest keeps Best non-inferior on (II, system delay), matching the
// "feasible and non-inferior predicted designs" reported in the paper's
// tables, as design g arrives. It reports false when a kept design is no
// worse than g on both, so of equal designs the first one stays.
// Otherwise it drops the kept designs g dominates and reports true, for
// the caller to append g. Every design met is kept or no better than a
// kept one, and that relation is transitive, so the kept designs are
// exactly those no earlier design is as good as and no design beats.
func (res *SearchResult) admitBest(g *GlobalDesign) bool {
	for i := range res.Best {
		if res.Best[i].IIMain <= g.IIMain && res.Best[i].DelayMain <= g.DelayMain {
			return false
		}
	}
	res.Best = slices.DeleteFunc(res.Best, func(k GlobalDesign) bool {
		return g.IIMain <= k.IIMain && g.DelayMain <= k.DelayMain
	})
	return true
}

// finishSearch orders the non-inferior designs fastest first. Their
// (II, system delay) pairs are distinct, so the order is total.
func finishSearch(res *SearchResult) {
	slices.SortFunc(res.Best, func(a, b GlobalDesign) int {
		if a.IIMain != b.IIMain {
			return cmp.Compare(a.IIMain, b.IIMain)
		}
		return cmp.Compare(a.DelayMain, b.DelayMain)
	})
}
