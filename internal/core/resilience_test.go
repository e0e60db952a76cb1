package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// runToError runs a checkpointed search expected to fail mid-flight (an
// injected fault) and asserts it did.
func runToError(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) {
	t.Helper()
	if _, err := Search(p, cfg, preds, h); err == nil {
		t.Fatalf("interrupted %s search did not fail", h)
	}
}

// TestCheckpointResumeByteIdentical is the durability guarantee: a search
// killed mid-flight and resumed from its checkpoint produces a result
// byte-identical to the reference walk — same counters, same Best
// ordering, same Space sequence — for both heuristics at one worker and at
// several.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	base := exp1Config()
	base.KeepAll = true
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("h=%s/w=%d", h, workers), func(t *testing.T) {
				cfg := base
				cfg.Workers = workers
				want := referenceSearch(t, p, cfg, preds, h)
				// Kill the search deterministically at the very last trial:
				// every earlier shard has then completed (and checkpointed)
				// while the failing shard has not. (An earlier cut can land
				// inside shard 0 — the iterative heuristic front-loads most
				// of its trials into the first interval.)
				at := want.Trials
				if at < 2 {
					t.Fatalf("search too small to interrupt (%d trials)", want.Trials)
				}
				ckpt := filepath.Join(t.TempDir(), "search.ckpt")
				cfg.CheckpointPath = ckpt
				cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", at))
				runToError(t, p, cfg, preds, h)
				if _, err := os.Stat(ckpt); err != nil {
					t.Fatalf("no checkpoint left behind: %v", err)
				}
				cfg.Inject = nil
				cfg.Resume = true
				cfg.Metrics = obs.NewMetrics()
				got, err := Search(p, cfg, preds, h)
				if err != nil {
					t.Fatalf("resumed search: %v", err)
				}
				if n := cfg.Metrics.Counter("resilience.checkpoint_resumed_shards"); n == 0 {
					t.Error("resume restored no shards; test is vacuous")
				}
				requireReference(t, want, got, "resumed")
				// A successful search consumes its checkpoint.
				if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
					t.Errorf("checkpoint not removed after success: %v", err)
				}
			})
		}
	}
}

// TestCheckpointWorkerCountPortability pins the documented resume-vs-worker
// semantics. Enumeration shard geometry derives from the worker count, so a
// checkpoint written at one count does not resume at another — the changed
// shard count is a signature mismatch and the search starts fresh (still
// correct). Iterative shards are the candidate intervals, independent of
// workers, so an iterative checkpoint resumes at any worker count with a
// byte-identical result.
func TestCheckpointWorkerCountPortability(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	base := exp1Config()
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h       Heuristic
		resumes bool
	}{
		{Enumeration, false},
		{Iterative, true},
	} {
		t.Run(tc.h.String(), func(t *testing.T) {
			cfg := base
			want := referenceSearch(t, p, cfg, preds, tc.h)
			// Interrupt a 2-worker run at the last trial, then resume with 4.
			cfg.Workers = 2
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
			cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", want.Trials))
			runToError(t, p, cfg, preds, tc.h)

			cfg.Workers = 4
			cfg.Inject = nil
			cfg.Resume = true
			cfg.Metrics = obs.NewMetrics()
			got, err := Search(p, cfg, preds, tc.h)
			if err != nil {
				t.Fatalf("resumed search: %v", err)
			}
			resumed := cfg.Metrics.Counter("resilience.checkpoint_resumed_shards")
			mismatch := cfg.Metrics.Counter("resilience.checkpoint_mismatch")
			if tc.resumes && (resumed == 0 || mismatch != 0) {
				t.Errorf("iterative checkpoint did not survive the worker-count change (resumed=%d mismatch=%d)", resumed, mismatch)
			}
			if !tc.resumes && (resumed != 0 || mismatch == 0) {
				t.Errorf("enumeration checkpoint crossed worker counts (resumed=%d mismatch=%d)", resumed, mismatch)
			}
			requireReference(t, want, got, "after worker-count change")
		})
	}
}

// TestCheckpointSignatureMismatchStartsFresh: a checkpoint taken under one
// configuration must not leak into a search with different knobs — the
// mismatch is detected and the run starts from scratch, still correct.
func TestCheckpointSignatureMismatchStartsFresh(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	cfg.CheckpointPath = ckpt
	cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", want.Trials/2))
	runToError(t, p, cfg, preds, Enumeration)

	// Same checkpoint file, different performance bound: must not resume.
	cfg.Inject = nil
	cfg.Resume = true
	cfg.Constraints.Perf.Bound *= 2
	cfg.Metrics = obs.NewMetrics()
	if _, err := Search(p, cfg, preds, Enumeration); err != nil {
		t.Fatalf("fresh-start search failed: %v", err)
	}
	if n := cfg.Metrics.Counter("resilience.checkpoint_mismatch"); n == 0 {
		t.Error("signature mismatch not detected")
	}
	if n := cfg.Metrics.Counter("resilience.checkpoint_resumed_shards"); n != 0 {
		t.Errorf("resumed %d shards from a foreign checkpoint", n)
	}
}

// TestSearchSurvivesPanickingPredictor is the satellite regression test: a
// predictor that panics during the search pipeline must surface as an error
// from Run, not crash the process, and must be visible in metrics.
func TestSearchSurvivesPanickingPredictor(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.Workers = 4
	cfg.Inject = resilience.MustParse("bad.predict=panic:@1")
	cfg.Metrics = obs.NewMetrics()
	_, _, err := Run(p, cfg, Enumeration)
	if err == nil {
		t.Fatal("Run with panicking predictor returned nil error")
	}
	pe, ok := resilience.IsPanic(err)
	if !ok {
		t.Fatalf("error is not a recovered panic: %v", err)
	}
	if pe.Site != "bad.predict" {
		t.Errorf("panic site = %q", pe.Site)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if n := cfg.Metrics.Counter("resilience.panic_recovered"); n == 0 {
		t.Error("resilience.panic_recovered not incremented")
	}
}

// TestSearchSurvivesPanickingTrial: a panic in the middle of trial
// evaluation — serial or parallel — fails the search with a structured
// error instead of killing the process, and the surviving shards' partial
// counts still merge.
func TestSearchSurvivesPanickingTrial(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	base := exp1Config()
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Search(p, base, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			cfg := base
			cfg.Workers = workers
			cfg.Inject = resilience.MustParse(
				fmt.Sprintf("core.trial=panic:@%d", ref.Trials/2))
			cfg.Metrics = obs.NewMetrics()
			res, err := Search(p, cfg, preds, Enumeration)
			if err == nil {
				t.Fatal("search with panicking trial returned nil error")
			}
			if _, ok := resilience.IsPanic(err); !ok {
				t.Fatalf("error is not a recovered panic: %v", err)
			}
			if n := cfg.Metrics.Counter("resilience.panic_recovered"); n == 0 {
				t.Error("resilience.panic_recovered not incremented")
			}
			if workers > 1 && res.Trials == 0 {
				t.Error("no partial trials merged from surviving shards")
			}
		})
	}
}

// TestCheckpointSaveFailureDoesNotKillSearch: checkpoint durability is
// best-effort — a sink that always fails (after the built-in retries) is
// counted but never aborts the search.
func TestCheckpointSaveFailureDoesNotKillSearch(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.Workers = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	cfg.Inject = resilience.MustParse("checkpoint.save=error:/1")
	cfg.Metrics = obs.NewMetrics()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSearch(t, p, cfg, preds, Enumeration)
	got, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatalf("search failed on checkpoint-save faults: %v", err)
	}
	requireReference(t, want, got, "checkpoint-save faults")
	if n := cfg.Metrics.Counter("resilience.checkpoint_save_failed"); n == 0 {
		t.Error("failed saves not counted")
	}
}

// TestInjectedErrorIsDistinguishable: faults injected via the harness are
// marked, so tests and chaos tooling can tell them from organic failures.
func TestInjectedErrorIsDistinguishable(t *testing.T) {
	p := arPartitioning(t, 1, 1)
	cfg := exp1Config()
	cfg.Inject = resilience.MustParse("core.trial=error:@1")
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Search(p, cfg, preds, Enumeration)
	if !resilience.IsInjected(err) {
		t.Fatalf("injected fault not recognizable: %v", err)
	}
	var ie *resilience.InjectedError
	if !errors.As(err, &ie) || ie.Site != "core.trial" {
		t.Fatalf("injected error = %+v", err)
	}
}
