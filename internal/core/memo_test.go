package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chop/internal/bad"
	"chop/internal/obs"
)

// memoCase is one partitioning with the trials the memo test replays.
type memoCase struct {
	name   string
	p      *Partitioning
	cfg    Config
	trials []memoTrial
}

type memoTrial struct {
	choice []bad.Design
	l      int
}

// memoCases draws random partitionings with random trials over their
// unpruned design lists. Each trial is drawn twice, so most signatures
// repeat; a third of the trials move l off the combination's own
// interval; lists gain a design with a negative latency (an urgency
// error); and two cases have mutually dependent partitions on different
// chips (a cyclic task graph, so every scheduled trial is a schedule
// error). Narrow buses, power bounds and experiment 2's multi-cycle style
// come from randomRefConfig.
func memoCases(t *testing.T) []memoCase {
	rng := rand.New(rand.NewSource(1991))
	var cs []memoCase
	for len(cs) < 40 {
		p := randomRefPartitioning(rng)
		if p == nil {
			continue
		}
		cfg := randomRefConfig(rng)
		if c, ok := drawMemoCase(rng, fmt.Sprint("rand/", len(cs)), p, p, cfg); ok {
			cs = append(cs, c)
		}
	}
	for i, ports := range []int{1, 2} {
		// The two adder chains with their last adders swapped: P1 feeds P2
		// and P2 feeds P1. Validate refuses that, so the designs come from
		// the valid split.
		valid := memPartitioning(ports)
		left, right := valid.Parts[0], valid.Parts[1]
		p := *valid
		p.Parts = [][]int{append(left[:len(left)-1:len(left)-1], right[len(right)-1]),
			append(right[:len(right)-1:len(right)-1], left[len(left)-1])}
		cfg := exp2Config()
		cfg.KeepAll = true
		c, ok := drawMemoCase(rng, fmt.Sprint("cyclic/", i), &p, valid, cfg)
		if !ok {
			t.Fatalf("cyclic/%d: no design lists", i)
		}
		cs = append(cs, c)
	}
	return cs
}

// drawMemoCase draws the trials of p over the design lists predicted for
// pred, which has p's partition count.
func drawMemoCase(rng *rand.Rand, name string, p, pred *Partitioning, cfg Config) (memoCase, bool) {
	preds, err := PredictPartitions(pred, cfg)
	if err != nil {
		return memoCase{}, false
	}
	lists := make([][]bad.Design, len(preds))
	for i, r := range preds {
		if len(r.Designs) == 0 {
			return memoCase{}, false
		}
		lists[i] = append([]bad.Design(nil), r.Designs...)
		if rng.Intn(3) == 0 {
			neg := lists[i][0]
			neg.Latency = -1
			lists[i] = append(lists[i], neg)
		}
	}
	c := memoCase{name: name, p: p, cfg: cfg}
	intervals := iterativeIntervals(cfg, lists)
	for len(c.trials) < 60 {
		tr := memoTrial{choice: make([]bad.Design, len(lists))}
		for i, list := range lists {
			tr.choice[i] = list[rng.Intn(len(list))]
			tr.l = max(tr.l, tr.choice[i].IIMainCycles(cfg.Clocks))
		}
		if rng.Intn(3) == 0 {
			tr.l = intervals[rng.Intn(len(intervals))]
		}
		c.trials = append(c.trials, tr, tr)
	}
	return c, true
}

// memoEval evaluates one trial on scratch sc and returns its owned design
// as JSON.
func memoEval(t *testing.T, it *integrator, sc *trialScratch, tr memoTrial) ([]byte, GlobalDesign) {
	g, err := it.integrate(sc, tr.choice, tr.l, nil)
	if err != nil {
		t.Fatal(err)
	}
	own := g.own()
	js, err := json.Marshal(own)
	if err != nil {
		t.Fatal(err)
	}
	return js, own
}

// urgencyHists returns the urgency observations of a metrics registry.
func urgencyHists(m *obs.Metrics) [2]obs.HistSnapshot {
	h := m.Snapshot().Histograms
	return [2]obs.HistSnapshot{h["core.urgency_tasks"], h["core.urgency_cycles"]}
}

// TestSignatureMemoMatchesFreshScratch is the memo's differential test:
// every case's trials run in several shuffled orders on one shared scratch,
// whose memo answers repeated signatures, and each design must be
// byte-identical to the one a fresh scratch (an empty memo) gives for the
// same trial. The urgency metrics each order books must equal a fresh
// run's too. The shared scratch runs once at the real budget and once at
// budgets that force the memo to clear mid-run.
func TestSignatureMemoMatchesFreshScratch(t *testing.T) {
	verdicts := map[Reason]int{}
	trials, signatures := 0, 0
	for _, c := range memoCases(t) {
		freshCfg := c.cfg
		freshCfg.Metrics = obs.NewMetrics()
		freshIt, err := newIntegrator(c.p, freshCfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := make([][]byte, len(c.trials))
		for i, tr := range c.trials {
			sc := freshIt.newScratch()
			var g GlobalDesign
			want[i], g = memoEval(t, freshIt, sc, tr)
			sc.release()
			verdicts[g.ReasonCode]++
		}
		wantHists := urgencyHists(freshCfg.Metrics)
		trials += len(c.trials)

		rng := rand.New(rand.NewSource(int64(len(c.trials))))
		for _, budget := range []int{memoBudget, 1, 3000} {
			cfg := c.cfg
			it, err := newIntegrator(c.p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := it.newScratch()
			sc.memo.budget = budget
			for order := 0; order < 3; order++ {
				it.cfg.Metrics = obs.NewMetrics()
				entries := len(sc.memo.heads)
				for _, i := range rng.Perm(len(c.trials)) {
					got, _ := memoEval(t, it, sc, c.trials[i])
					if !bytes.Equal(got, want[i]) {
						t.Fatalf("%s, budget %d, order %d, trial %d (l=%d): shared scratch gives\n%s\nfresh scratch gives\n%s",
							c.name, budget, order, i, c.trials[i].l, got, want[i])
					}
				}
				// Every trial ran once in this order, as in the fresh run.
				if got := urgencyHists(it.cfg.Metrics); !reflect.DeepEqual(got, wantHists) {
					t.Fatalf("%s, budget %d, order %d: urgency metrics %+v, fresh %+v", c.name, budget, order, got, wantHists)
				}
				// At the real budget, orders after the first meet only
				// signatures the memo holds.
				if budget == memoBudget && order > 0 && len(sc.memo.heads) != entries {
					t.Fatalf("%s, order %d: memo grew from %d to %d entries on repeated trials",
						c.name, order, entries, len(sc.memo.heads))
				}
			}
			if budget == memoBudget {
				signatures += len(sc.memo.heads)
			}
			if budget == 1 && len(sc.memo.heads) > 1 {
				t.Fatalf("%s: memo holds %d entries over a 1-byte budget", c.name, len(sc.memo.heads))
			}
			sc.release()
		}
	}
	t.Logf("verdicts %v; %d trials met %d signatures", verdicts, trials, signatures)
	for _, r := range []Reason{ReasonNone, ReasonSchedule, ReasonArea, ReasonRateMismatch} {
		if verdicts[r] == 0 {
			t.Errorf("cases never reached verdict %s", r)
		}
	}
}
