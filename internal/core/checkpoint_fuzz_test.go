package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chop/internal/resilience"
)

// FuzzCheckpointRestore feeds arbitrary bytes to the checkpoint restore as
// the file a resumed search finds on disk. Restore must never panic, must
// only hand back in-range, non-nil shards, and a file it cannot use —
// torn, foreign, of another search — must fall back to a fresh search
// whose result equals an uncheckpointed run's.
func FuzzCheckpointRestore(f *testing.F) {
	p := arPartitioning(f, 2, 1)
	base := exp1Config()
	preds, err := PredictPartitions(p, base)
	if err != nil {
		f.Fatal(err)
	}
	const h = Enumeration
	want, err := Search(p, base, preds, h)
	if err != nil {
		f.Fatal(err)
	}
	e, err := newEngine(base, preds, h, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.sign(p); err != nil {
		f.Fatal(err)
	}
	plan := e.plan

	// Seeds: a genuine snapshot left by an interrupted run, its torn
	// prefix, one of a different search, and envelope-level garbage.
	dir := f.TempDir()
	genuine := filepath.Join(dir, "genuine.ckpt")
	cut := base
	cut.CheckpointPath = genuine
	cut.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", want.Trials))
	if _, err := Search(p, cut, preds, h); err == nil {
		f.Fatal("interrupted search did not fail")
	}
	blob, err := os.ReadFile(genuine)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	foreign := filepath.Join(dir, "foreign.ckpt")
	if err := resilience.SaveCheckpoint(foreign, checkpointKind,
		searchCheckpoint{Signature: "other", Done: map[int]*SearchResult{0: {Trials: 1}}}); err != nil {
		f.Fatal(err)
	}
	if blob, err = os.ReadFile(foreign); err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"version":1,"kind":"chop/search-shards","data":{"done":{"-1":null,"99":{}}}}`))
	f.Add([]byte(`{"version":2,"kind":"other","data":7}`))
	f.Add([]byte("\x00garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := base
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
		cfg.Resume = true
		if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, restored := openCheckpointer(cfg, plan, nil)
		for si, r := range restored {
			if si < 0 || si >= plan.Shards || r == nil {
				t.Fatalf("restored shard %d of %d (nil=%v)", si, plan.Shards, r == nil)
			}
		}
		if len(restored) > 0 {
			// Only a snapshot carrying this search's signature restores
			// anything; its shard results are trusted as written.
			return
		}
		got, err := Search(p, cfg, preds, h)
		if err != nil {
			t.Fatalf("search over an unusable checkpoint: %v", err)
		}
		requireReference(t, want, got, "fresh fallback")
	})
}
