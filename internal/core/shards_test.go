package core

import (
	"fmt"
	"testing"

	"chop/internal/bad"
)

// drainAll plans a search at the requested shard count, drains every shard
// and merges the buffers in shard order, as searchAll does without a
// checkpoint.
func drainAll(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, shards int) SearchResult {
	t.Helper()
	e, err := newEngine(cfg, preds, h, shards)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if e.it, err = newIntegrator(p, cfg); err != nil {
		t.Fatalf("integrator: %v", err)
	}
	order := make([]int, e.plan.Shards)
	for i := range order {
		order[i] = i
	}
	outs := make([]shardOut, e.plan.Shards)
	e.drain(order, outs, nil)
	res := SearchResult{Heuristic: h}
	if err := mergeShards(&res, outs); err != nil {
		t.Fatalf("drain: %v", err)
	}
	finishSearch(&res)
	return res
}

// TestEngineShardCountsMatchReference: the merged result does not depend
// on the shard geometry — draining the planned shards and merging them in
// shard order equals the reference walk, for both heuristics and several
// requested shard counts.
func TestEngineShardCountsMatchReference(t *testing.T) {
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
			requireReference(t, want, drainAll(t, p, cfg, preds, h, shards),
				fmt.Sprintf("h=%v shards=%d", h, shards))
		}
	}
}

// signedPlan plans and signs a search at the requested shard count.
func signedPlan(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, shards int) shardPlan {
	t.Helper()
	e, err := newEngine(cfg, preds, h, shards)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := e.sign(p); err != nil {
		t.Fatalf("sign: %v", err)
	}
	return e.plan
}

// TestPlanSignatureInvariance: the signature a checkpoint is resumed by
// pins the search — same inputs agree, different knobs or geometry differ.
func TestPlanSignatureInvariance(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	p1 := signedPlan(t, p, cfg, preds, Enumeration, 4)
	p2 := signedPlan(t, p, cfg, preds, Enumeration, 4)
	if p1.Signature == "" || p1.Signature != p2.Signature {
		t.Fatalf("same plan, different signatures: %q vs %q", p1.Signature, p2.Signature)
	}
	if p3 := signedPlan(t, p, cfg, preds, Enumeration, 2); p3.Signature == p1.Signature {
		t.Fatalf("different shard geometry, same signature")
	}
	cfg2 := cfg
	cfg2.KeepAll = !cfg.KeepAll
	if p4 := signedPlan(t, p, cfg2, preds, Enumeration, 4); p4.Signature == p1.Signature {
		t.Fatalf("different knobs, same signature")
	}
	// Iterative plans ignore the requested shard count.
	i1 := signedPlan(t, p, cfg, preds, Iterative, 1)
	i2 := signedPlan(t, p, cfg, preds, Iterative, 99)
	if i1.Shards != i2.Shards || i1.Signature != i2.Signature {
		t.Fatalf("iterative plan depends on requested count: %+v vs %+v", i1, i2)
	}
}
