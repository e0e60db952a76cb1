package core

import (
	"fmt"
	"math/rand"
	"testing"

	"chop/internal/bad"
	"chop/internal/obs"
)

// planAndRunAll plans the shard decomposition and executes every shard in
// one SearchShards call, returning the merged result.
func planAndRunAll(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, shards int) SearchResult {
	t.Helper()
	plan, err := PlanShards(p, cfg, preds, h, shards)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	indices := make([]int, plan.Shards)
	for i := range indices {
		indices[i] = i
	}
	done, err := SearchShards(p, cfg, preds, plan, indices)
	if err != nil {
		t.Fatalf("SearchShards: %v", err)
	}
	merged, err := MergeShardResults(h, plan.Shards, done)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}

// TestSearchShardsMergeMatchesSerial is the distributed substrate's core
// promise: executing the planned shards and merging the done-set equals
// the reference walk, for both heuristics and several shard counts.
func TestSearchShardsMergeMatchesSerial(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.KeepAll = true
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		want := referenceSearch(t, p, cfg, preds, h)
		for _, shards := range []int{1, 3, 8} {
			requireReference(t, want, planAndRunAll(t, p, cfg, preds, h, shards),
				fmt.Sprintf("h=%v shards=%d", h, shards))
		}
	}
}

// TestSearchShardsSubsetsCompose: running random disjoint index subsets in
// separate SearchShards calls at random worker counts (as different fleet
// workers would) and merging the union equals the reference walk.
func TestSearchShardsSubsetsCompose(t *testing.T) {
	p := arPartitioning(t, 3, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, h := range []Heuristic{Enumeration, Iterative} {
		want := referenceSearch(t, p, cfg, preds, h)
		for round := 0; round < 4; round++ {
			plan, err := PlanShards(p, cfg, preds, h, 2+rng.Intn(12))
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			if plan.Shards < 2 {
				t.Fatalf("want >= 2 shards, got %d", plan.Shards)
			}
			// Deal the shuffled indices into 1-3 subsets.
			subsets := make([][]int, 1+rng.Intn(3))
			for _, si := range rng.Perm(plan.Shards) {
				k := rng.Intn(len(subsets))
				subsets[k] = append(subsets[k], si)
			}
			done := make(map[int]*SearchResult)
			for _, part := range subsets {
				if len(part) == 0 {
					continue
				}
				wcfg := cfg
				wcfg.Workers = 1 + rng.Intn(4)
				d, err := SearchShards(p, wcfg, preds, plan, part)
				if err != nil {
					t.Fatalf("SearchShards(%v): %v", part, err)
				}
				for si, r := range d {
					done[si] = r
				}
			}
			merged, err := MergeShardResults(h, plan.Shards, done)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			requireReference(t, want, merged, fmt.Sprintf("h=%v round=%d subsets=%v", h, round, subsets))
		}
	}
}

// TestSearchShardsStatsCoverRunShards: a shard job's live stats describe
// the shards it runs, not the whole plan — every shard reaches done, the
// enumeration total is the leased ranges' size, and the iterative total
// stays unknown (0).
func TestSearchShardsStatsCoverRunShards(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		plan, err := PlanShards(p, cfg, preds, h, 6)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		indices := []int{plan.Shards - 1, 0}
		st := obs.NewRunStats("job")
		scfg := cfg
		scfg.Stats = st
		done, err := SearchShards(p, scfg, preds, plan, indices)
		if err != nil {
			t.Fatalf("SearchShards: %v", err)
		}
		trials := done[0].Trials + done[plan.Shards-1].Trials
		snap := st.Snapshot()
		if snap.Shards != len(indices) || snap.ShardsDone != snap.Shards || !snap.Done() {
			t.Fatalf("%s: stats shards %d done %d, want %d done", h, snap.Shards, snap.ShardsDone, len(indices))
		}
		if snap.Trials != int64(trials) {
			t.Fatalf("%s: stats trials %d, shards ran %d", h, snap.Trials, trials)
		}
		wantTotal := int64(trials)
		if h == Iterative {
			wantTotal = 0
		}
		if snap.Total != wantTotal {
			t.Fatalf("%s: stats total %d, want %d", h, snap.Total, wantTotal)
		}
	}
}

// TestPlanShardsSignatureInvariance: the signature pins the search — same
// inputs agree, different knobs or geometry differ.
func TestPlanShardsSignatureInvariance(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	p1, err := PlanShards(p, cfg, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	p2, err := PlanShards(p, cfg, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p1.Signature == "" || p1.Signature != p2.Signature {
		t.Fatalf("same plan, different signatures: %q vs %q", p1.Signature, p2.Signature)
	}
	p3, err := PlanShards(p, cfg, preds, Enumeration, 2)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p3.Signature == p1.Signature {
		t.Fatalf("different shard geometry, same signature")
	}
	cfg2 := cfg
	cfg2.KeepAll = !cfg.KeepAll
	p4, err := PlanShards(p, cfg2, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p4.Signature == p1.Signature {
		t.Fatalf("different knobs, same signature")
	}
	// Iterative plans ignore the requested shard count.
	i1, err := PlanShards(p, cfg, preds, Iterative, 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	i2, err := PlanShards(p, cfg, preds, Iterative, 99)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if i1.Shards != i2.Shards || i1.Signature != i2.Signature {
		t.Fatalf("iterative plan depends on requested count: %+v vs %+v", i1, i2)
	}
}

// TestSearchShardsRejectsBadInputs: geometry mismatches and bad indices
// fail fast instead of silently producing a divergent merge.
func TestSearchShardsRejectsBadInputs(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	plan, err := PlanShards(p, cfg, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	beyond := plan
	beyond.Shards = plan.Total + 1
	if _, err := SearchShards(p, cfg, preds, beyond, []int{0}); err == nil {
		t.Fatalf("enumeration shard count beyond the combination count accepted")
	}
	iplan, err := PlanShards(p, cfg, preds, Iterative, 0)
	if err != nil {
		t.Fatalf("iterative plan: %v", err)
	}
	iplan.Shards++
	if _, err := SearchShards(p, cfg, preds, iplan, []int{0}); err == nil {
		t.Fatalf("iterative shard-count mismatch accepted")
	}
	if _, err := SearchShards(p, cfg, preds, plan, []int{plan.Shards}); err == nil {
		t.Fatalf("out-of-range index accepted")
	}
	if _, err := SearchShards(p, cfg, preds, plan, []int{0, 0}); err == nil {
		t.Fatalf("duplicate index accepted")
	}
	other := plan
	other.Heuristic = Iterative
	if _, err := SearchShards(p, cfg, preds, other, []int{0}); err == nil {
		t.Fatalf("plan of a different heuristic accepted")
	}
	if _, err := MergeShardResults(Enumeration, plan.Shards, map[int]*SearchResult{}); err == nil {
		t.Fatalf("merge with missing shards accepted")
	}
}
