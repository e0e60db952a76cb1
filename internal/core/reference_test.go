package core

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"chop/internal/bad"
)

// referenceSearch is the specification of both heuristics, written as the
// paper's plain loops with no shards, workers, checkpoints or
// instrumentation: for the enumeration heuristic an odometer over the whole
// combination space, for the iterative heuristic the Figure-5 loop over the
// candidate intervals in ascending order. Both evaluate through
// DebugIntegrator.Eval, which hands back designs the caller owns. The
// engine's results at every worker count, resumed from any checkpoint, and
// merged from any shard split must equal it.
func referenceSearch(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) SearchResult {
	t.Helper()
	it := NewDebugIntegrator(p, cfg)
	lists := make([][]bad.Design, len(preds))
	for i, r := range preds {
		lists[i] = r.Designs
		if len(r.Designs) == 0 {
			return SearchResult{Heuristic: h}
		}
	}
	res := SearchResult{Heuristic: h}
	eval := func(choice []bad.Design, l int) GlobalDesign {
		res.Trials++
		g := it.Eval(choice, l)
		if g.Feasible {
			res.FeasibleTrials++
			res.Best = append(res.Best, g)
		}
		if cfg.KeepAll && len(g.ChipArea) > 0 {
			res.Space = append(res.Space, SpacePoint{
				AreaML: g.TotalArea(), DelayNS: g.DelayNS.ML, IIMain: g.IIMain, Feasible: g.Feasible,
			})
		}
		return g
	}
	pick := func(w []int) []bad.Design {
		choice := make([]bad.Design, len(lists))
		for i, j := range w {
			choice[i] = lists[i][j]
		}
		return choice
	}
	switch h {
	case Enumeration:
		idx := make([]int, len(lists))
		for {
			choice := pick(idx)
			l := 0
			for _, d := range choice {
				l = max(l, d.IIMainCycles(cfg.Clocks))
			}
			eval(choice, l)
			// Last digit fastest.
			i := len(idx) - 1
			for ; i >= 0; i-- {
				if idx[i]++; idx[i] < len(lists[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	case Iterative:
	intervals:
		for _, l := range iterativeIntervals(cfg, lists) {
			w := make([]int, len(lists))
			for i := range lists {
				if w[i] = nextValid(lists[i], -1, l, cfg); w[i] < 0 {
					continue intervals
				}
			}
			for {
				g := eval(pick(w), l)
				if g.Feasible {
					break
				}
				bestQ, bestDelay := -1, 0
				for _, pi := range partitionsOnChips(p, g.AreaViolations) {
					ni := nextValid(lists[pi], w[pi], l, cfg)
					if ni < 0 {
						continue
					}
					trial := append([]int(nil), w...)
					trial[pi] = ni
					if tg := eval(pick(trial), l); bestQ < 0 || tg.DelayMain < bestDelay {
						bestQ, bestDelay = pi, tg.DelayMain
					}
				}
				if bestQ < 0 {
					break
				}
				w[bestQ] = nextValid(lists[bestQ], w[bestQ], l, cfg)
			}
		}
	default:
		t.Fatalf("reference: unknown heuristic %d", h)
	}
	res.Best = refNonInferior(res.Best)
	return res
}

// refNonInferior reduces feasible designs, in the order they were met, to
// the non-inferior set, fastest first: a stable sort on (II, system
// delay), then a filter that drops every design some earlier kept design
// is no worse than on both.
func refNonInferior(best []GlobalDesign) []GlobalDesign {
	sort.SliceStable(best, func(i, j int) bool {
		if best[i].IIMain != best[j].IIMain {
			return best[i].IIMain < best[j].IIMain
		}
		return best[i].DelayMain < best[j].DelayMain
	})
	var keep []GlobalDesign
	for _, g := range best {
		dominated := false
		for _, k := range keep {
			if k.IIMain <= g.IIMain && k.DelayMain <= g.DelayMain {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, g)
		}
	}
	return keep
}

// requireReference asserts got is byte-identical (as JSON, and DeepEqual)
// to want: same counters, same Best ordering, same Space sequence.
func requireReference(t *testing.T, want, got SearchResult, label string) {
	t.Helper()
	if want.Trials != got.Trials || want.FeasibleTrials != got.FeasibleTrials {
		t.Fatalf("%s: trials diverge: reference %d/%d, got %d/%d", label,
			want.Trials, want.FeasibleTrials, got.Trials, got.FeasibleTrials)
	}
	if len(want.Best) != len(got.Best) || len(want.Space) != len(got.Space) {
		t.Fatalf("%s: |Best|/|Space| diverge: reference %d/%d, got %d/%d", label,
			len(want.Best), len(want.Space), len(got.Best), len(got.Space))
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) || !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: result is not byte-identical to the reference", label)
	}
}

// searchMatchesReference runs Search at the given worker count and
// requires its result to equal want, the reference walk's result.
func searchMatchesReference(t *testing.T, want SearchResult, p *Partitioning, cfg Config,
	preds []bad.Result, workers int, label string) SearchResult {
	t.Helper()
	cfg.Workers = workers
	got, err := Search(p, cfg, preds, want.Heuristic)
	if err != nil {
		t.Fatalf("%s: search (%d workers): %v", label, workers, err)
	}
	requireReference(t, want, got, label)
	return got
}

// TestReferenceMatchesPaperTables anchors the reference itself to the
// EXPERIMENTS.md Table 4 row for two partitions on package 2: 25
// enumeration trials against 5 iterative ones, both finding best interval
// 40.
func TestReferenceMatchesPaperTables(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h      Heuristic
		trials int
	}{{Enumeration, 25}, {Iterative, 5}} {
		res := referenceSearch(t, p, cfg, preds, tc.h)
		if res.Trials != tc.trials || len(res.Best) == 0 || res.Best[0].IIMain != 40 {
			t.Logf("%s: %d trials, best %+v", tc.h, res.Trials, res.Best)
			t.Fatalf("%s reference: %d trials, want %d with best interval 40", tc.h, res.Trials, tc.trials)
		}
	}
}
