package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// This file is the one search engine. Both heuristics decompose into
// independent shards — contiguous index ranges of the combination
// cross-product for enumeration, single candidate initiation intervals for
// the iterative heuristic. A search plans the shards (newEngine's geometry),
// drains the shards not restored from a checkpoint with N workers claiming
// entries from one atomic cursor, and merges the per-shard results in shard
// order, which is exactly the visit order of the paper's loops. Serial,
// parallel and checkpointed searches are therefore the same code, and their
// results agree by construction. See DESIGN.md, "Concurrency model".

// shardsPerWorker over-decomposes the enumeration space so a slow shard
// (expensive integrations cluster in parts of the space) cannot straggle
// the whole pool. Purely a load-balancing knob: shard count never affects
// the merged result.
const shardsPerWorker = 4

// shardPlan fixes the deterministic decomposition of one search.
type shardPlan struct {
	Heuristic Heuristic
	// Shards is the number of shards the search splits into. Zero marks an
	// empty search space (some partition has no viable prediction for the
	// enumeration heuristic, or an empty design list for the iterative one):
	// there is nothing to execute and the merged result is the zero result.
	Shards int
	// Total is the enumeration combination count; for the iterative
	// heuristic it equals Shards (one candidate interval per shard).
	Total int
	// Signature fingerprints the problem content, search knobs and shard
	// geometry (see searchSignature). Resume refuses a checkpoint whose
	// signature differs: it would merge shards from a different search.
	Signature string
}

// engine is one planned search: the shard geometry and what executing a
// shard needs. Everything but aborted is read-only while workers drain.
type engine struct {
	plan      shardPlan
	lists     [][]bad.Design
	intervals []int // iterative: shard si's candidate interval
	it        *integrator
	cfg       Config
	sp        *obs.Span
	cp        *checkpointer
	// aborted is set by the first failing shard so the others stop.
	aborted atomic.Bool
}

// newEngine plans the shard decomposition of a search over preds, without
// signing it. For the enumeration heuristic the space splits into `shards`
// contiguous combination ranges (clamped to the combination count; <= 0
// requests the default of workers x shardsPerWorker). The iterative
// heuristic's shards are its candidate intervals, so the request is
// ignored.
func newEngine(cfg Config, preds []bad.Result, h Heuristic, shards int) (*engine, error) {
	e := &engine{plan: shardPlan{Heuristic: h}, cfg: cfg, lists: make([][]bad.Design, len(preds))}
	for i, r := range preds {
		e.lists[i] = r.Designs
	}
	switch h {
	case Enumeration:
		total, err := enumSpaceSize(cfg, e.lists)
		if err != nil {
			return nil, err
		}
		if shards <= 0 {
			shards = cfg.searchWorkers() * shardsPerWorker
		}
		e.plan.Shards, e.plan.Total = min(shards, total), total
	case Iterative:
		for _, l := range e.lists {
			if len(l) == 0 {
				return e, nil // no viable combination exists
			}
		}
		e.intervals = iterativeIntervals(cfg, e.lists)
		e.plan.Shards, e.plan.Total = len(e.intervals), len(e.intervals)
	default:
		return nil, fmt.Errorf("core: unknown heuristic %d", h)
	}
	return e, nil
}

// sign stamps the plan with its signature. Only checkpoints need one; a
// plain search never pays for it.
func (e *engine) sign(p *Partitioning) error {
	sig, err := searchSignature(p, e.cfg, e.plan.Heuristic, e.lists, e.plan.Shards, e.plan.Total)
	e.plan.Signature = sig
	return err
}

// shardTrials is the trial count of shard si known before it runs: its
// combination range for enumeration, unknown (0) for the iterative
// heuristic, whose serialization walks have no a-priori length.
func (e *engine) shardTrials(si int) int {
	if e.plan.Heuristic == Iterative {
		return 0
	}
	lo, hi := shardRange(e.plan.Total, e.plan.Shards, si)
	return hi - lo
}

// shardOut is one shard's private result buffer. Workers write only their
// own shard's entry; the merge reads all of them after the drain.
type shardOut struct {
	res SearchResult
	err error
}

// shard is one shard's execution state and the only argument trial code
// takes: where its trials book, its live stats cell and phase handle, the
// decode and trial scratch a worker reuses across the shards it runs, and
// through the engine the span, integrator and design lists.
type shard struct {
	*engine
	res    *SearchResult
	ss     *obs.ShardStats
	ph     *obs.PhaseHandle
	idx    []int
	choice []bad.Design
	sc     *trialScratch
}

// errShardInterrupted marks a shard abandoned mid-range because another
// shard failed — not an error of its own, just "do not mark this one done".
var errShardInterrupted = errors.New("core: shard interrupted")

// drain runs the listed shards. Workers claim entries of order from one
// atomic cursor; a single worker drains on the caller's goroutine. Each
// shard books into outs[si].res, or straight into `into` when it is
// non-nil — a one-worker drain without per-shard consumers, where booking
// in claim order is booking in visit order and no buffer needs merging.
// A shard's error lands in outs[si].err and stops the drain.
func (e *engine) drain(order []int, outs []shardOut, into *SearchResult) {
	var cursor atomic.Int64
	work := func() {
		ph := e.cfg.Phases.Global()
		tok := ph.Begin()
		s := &shard{engine: e, sc: e.it.newScratch(),
			idx: make([]int, len(e.lists)), choice: make([]bad.Design, len(e.lists))}
		defer s.sc.release()
		ph.End(tok, obs.PhaseCompile)
		for {
			k := int(cursor.Add(1)) - 1
			if k >= len(order) || e.aborted.Load() {
				return
			}
			si := order[k]
			s.res = into
			if s.res == nil {
				s.res = &outs[si].res
			}
			s.ss = e.cfg.Stats.ShardStats(si)
			s.ph = e.cfg.Phases.Shard(si)
			if !s.run(si, &outs[si]) {
				return
			}
		}
	}
	workers := min(e.cfg.searchWorkers(), len(order))
	if workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// run executes shard si under the panic guard and reports whether its
// worker should claim another. A panicking trial (a prediction-model bug,
// a poisoned design) fails only its own shard: the recovered panic becomes
// that shard's error, the drain stops, and every other shard's partial
// result still merges as usual.
func (s *shard) run(si int, out *shardOut) bool {
	// The shard label refines the search-level run/phase labels, so a CPU
	// profile attributes samples to individual shards. One label set per
	// shard, invisible next to the shard's trial work.
	var err error
	obs.DoLabeled(s.cfg.Ctx, func(context.Context) {
		err = resilience.Guard("core.search", func() error { return s.body(si) })
	}, "shard", strconv.Itoa(si))
	if err == errShardInterrupted {
		return false
	}
	if err != nil {
		if _, panicked := resilience.IsPanic(err); panicked {
			s.cfg.Metrics.Inc("resilience.panic_recovered")
		}
		out.err = err
		s.aborted.Store(true)
		return false
	}
	s.ss.Done()
	s.cp.markDone(si, s.res)
	return true
}

// body evaluates shard si's trials: one Figure-5 serialization walk for the
// iterative heuristic, a contiguous odometer range for enumeration.
func (s *shard) body(si int) error {
	s.ss.Start(int64(s.shardTrials(si)))
	if s.plan.Heuristic == Iterative {
		return s.iterate(s.intervals[si])
	}
	lo, hi := shardRange(s.plan.Total, s.plan.Shards, si)
	decodeCombination(lo, s.lists, s.idx)
	for k := lo; k < hi; k++ {
		if err := s.interrupted(); err != nil {
			return err
		}
		if err := s.enumTrial(); err != nil {
			return err
		}
		advanceOdometer(s.idx, s.lists)
	}
	return nil
}

// interrupted reports whether the shard must stop before its next trial:
// the run was cancelled, or another shard failed.
func (s *shard) interrupted() error {
	if err := s.cfg.canceled(); err != nil {
		return err
	}
	if s.aborted.Load() {
		return errShardInterrupted
	}
	return nil
}

// mergeShard adds one shard's counters, designs and space points onto
// the aggregate, preserving shard order: the shard's designs join the
// aggregate's non-inferior set as if recorded there.
func mergeShard(dst *SearchResult, s *SearchResult) {
	dst.Trials += s.Trials
	dst.FeasibleTrials += s.FeasibleTrials
	for i := range s.Best {
		if dst.admitBest(&s.Best[i]) {
			dst.Best = append(dst.Best, s.Best[i])
		}
	}
	dst.Space = append(dst.Space, s.Space...)
}

// mergeShards folds every shard buffer onto dst in shard order and returns
// the first error in shard order (deterministic even when several shards
// failed concurrently). Shards before and after a failed one still
// contribute their partial counts, like a cancelled run's partial result.
func mergeShards(dst *SearchResult, outs []shardOut) error {
	var first error
	for i := range outs {
		mergeShard(dst, &outs[i].res)
		if first == nil && outs[i].err != nil {
			first = outs[i].err
		}
	}
	return first
}

// shardRange returns the half-open combination range [lo, hi) of shard si
// out of shards over a space of total combinations, balanced to within one.
func shardRange(total, shards, si int) (lo, hi int) {
	size, rem := total/shards, total%shards
	lo = si*size + min(si, rem)
	hi = lo + size
	if si < rem {
		hi++
	}
	return lo, hi
}

// decodeCombination writes the mixed-radix digits of linear combination
// index k into idx, most-significant digit first — the odometer order
// (last digit fastest).
func decodeCombination(k int, lists [][]bad.Design, idx []int) {
	for i := len(lists) - 1; i >= 0; i-- {
		idx[i] = k % len(lists[i])
		k /= len(lists[i])
	}
}
