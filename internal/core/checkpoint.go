package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// This file implements checkpoint/resume for the search engine. The unit
// of durability is the shard: a shard's private SearchResult depends only
// on its own combination range, so a snapshot of the completed shards plus
// the shard geometry is enough to restart a search exactly where it
// stopped. Incomplete shards are simply re-run; completed ones are restored
// verbatim and merged in the usual shard order, which makes a resumed
// result byte-identical to an uninterrupted one (enforced by
// TestCheckpointResumeByteIdentical).

// checkpointKind tags the search checkpoint payload inside the versioned
// resilience envelope.
const checkpointKind = "chop/search-shards"

// searchCheckpoint is the persisted payload.
type searchCheckpoint struct {
	// Signature fingerprints the exact search (problem content, search
	// knobs, shard geometry) this snapshot belongs to; resume refuses a
	// checkpoint whose signature differs.
	Signature string `json:"signature"`
	// Done maps completed shard indices to their private results.
	Done map[int]*SearchResult `json:"done"`
}

// searchSignature fingerprints everything that determines a shard's
// content: the partitioning structure, the per-partition design lists, the
// feasibility knobs and the shard geometry. The worker count is not hashed
// directly, but the shard count is, and for the enumeration heuristic the
// shard count derives from the worker count (workers × shardsPerWorker) —
// so an enumeration checkpoint only resumes at the worker count that wrote
// it; a different count is a signature mismatch and starts fresh. Iterative
// shards are the candidate intervals, independent of workers, so iterative
// checkpoints resume at any worker count.
func searchSignature(p *Partitioning, cfg Config, h Heuristic, lists [][]bad.Design, shards, total int) (string, error) {
	payload := struct {
		Heuristic   string
		Shards      int
		Total       int
		Graph       string
		Nodes       int
		Edges       int
		Parts       [][]int
		PartChip    []int
		Chips       any
		Mem         any
		Clocks      bad.Clocks
		Constraints Constraints
		MaxBusPins  int
		KeepAll     bool
		Lists       [][]bad.Design
	}{
		Heuristic: h.String(), Shards: shards, Total: total,
		Graph: p.Graph.Name, Nodes: len(p.Graph.Nodes), Edges: len(p.Graph.Edges),
		Parts: p.Parts, PartChip: p.PartChip, Chips: p.Chips, Mem: p.Mem,
		Clocks: cfg.Clocks, Constraints: cfg.Constraints,
		MaxBusPins: cfg.MaxBusPins, KeepAll: cfg.KeepAll, Lists: lists,
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("core: checkpoint signature: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// checkpointer persists the done-set of one planned search: every
// completed shard's result is written, with the plan signature, atomically
// to cfg.CheckpointPath as soon as it is marked done. All methods are
// nil-safe, and a nil checkpointer is what a search without a checkpoint
// path uses.
type checkpointer struct {
	mu     sync.Mutex
	cfg    Config
	sig    string
	dirty  bool // a completion is not yet in any snapshot
	saving bool // a goroutine is writing a snapshot (outside the lock)
	done   map[int]*SearchResult
	sp     *obs.Span
}

// openCheckpointer starts checkpointing the signed plan to
// cfg.CheckpointPath and returns the shards to skip, restored from an
// existing matching snapshot when cfg.Resume is set. It returns a nil
// checkpointer when cfg.CheckpointPath is empty. Load problems — missing
// file, foreign kind/version, signature mismatch — are not errors: the
// search starts fresh and the stale file is overwritten by the first save.
// cfg supplies the path, Resume, Metrics, Inject, Stats and Phases; cfg.Ctx
// bounds the save retries.
func openCheckpointer(cfg Config, plan shardPlan, sp *obs.Span) (*checkpointer, map[int]*SearchResult) {
	restored := make(map[int]*SearchResult)
	if cfg.CheckpointPath == "" {
		return nil, restored
	}
	c := &checkpointer{cfg: cfg, sig: plan.Signature, done: make(map[int]*SearchResult), sp: sp}
	if !cfg.Resume {
		return c, restored
	}
	var snap searchCheckpoint
	if err := resilience.LoadCheckpoint(cfg.CheckpointPath, checkpointKind, &snap); err != nil {
		cfg.Metrics.Inc("resilience.checkpoint_load_skipped")
		return c, restored
	}
	if snap.Signature != plan.Signature {
		cfg.Metrics.Inc("resilience.checkpoint_mismatch")
		if sp != nil {
			sp.Point("checkpoint", obs.F("resumed", false), obs.F("reason", "signature-mismatch"))
		}
		return c, restored
	}
	for si, res := range snap.Done {
		if si < 0 || si >= plan.Shards || res == nil {
			continue
		}
		c.done[si] = res
		restored[si] = res
	}
	cfg.Metrics.Add("resilience.checkpoint_resumed_shards", int64(len(restored)))
	if sp != nil {
		sp.Point("checkpoint", obs.F("resumed", true), obs.F("shards", len(restored)))
	}
	return c, restored
}

// markDone records a completed shard and snapshots the done-set. Safe for
// concurrent workers: the calling goroutine becomes the single writer
// unless one is already in flight, in which case that writer's next loop
// picks the new completion up. The done-map is copied under the lock so
// the write itself — resilience.Retry with backoff sleeps — runs unlocked
// and never stalls workers reporting new shards.
func (c *checkpointer) markDone(si int, res *SearchResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[si] = res
	c.dirty = true
	if c.saving {
		return
	}
	c.saving = true
	for c.dirty {
		c.dirty = false
		snap := searchCheckpoint{Signature: c.sig, Done: make(map[int]*SearchResult, len(c.done))}
		for si, res := range c.done {
			snap.Done[si] = res
		}
		c.mu.Unlock()
		c.save(snap)
		c.mu.Lock()
	}
	c.saving = false
}

// finish removes the checkpoint after a successful search: the snapshot is
// consumed, and a later unrelated run must not resume from it.
func (c *checkpointer) finish() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.Remove(c.cfg.CheckpointPath); err != nil && !os.IsNotExist(err) {
		c.cfg.Metrics.Inc("resilience.checkpoint_remove_failed")
	}
}

// save writes one snapshot with a short retry, absorbing transient I/O
// failures (and injected "checkpoint.save" faults). A save that still
// fails after the retries is recorded but does not kill the search —
// checkpoint durability is best-effort by design. Runs without the mutex;
// markDone guarantees a single writer at a time.
func (c *checkpointer) save(snap searchCheckpoint) {
	// Checkpoint I/O is booked on the accounter's global cell: the writer
	// is an elected worker goroutine, but the cost belongs to the
	// checkpoint phase, not to whichever shard drew the short straw.
	ph := c.cfg.Phases.Global()
	tok := ph.Begin()
	defer ph.End(tok, obs.PhaseCheckpoint)
	err := resilience.Retry(c.cfg.Ctx, resilience.RetryPolicy{
		Attempts: 3, BaseDelay: 5 * time.Millisecond, Seed: 1,
	}, func() error {
		if err := c.cfg.Inject.Fire("checkpoint.save"); err != nil {
			return err
		}
		return resilience.SaveCheckpoint(c.cfg.CheckpointPath, checkpointKind, snap)
	})
	if err != nil {
		c.cfg.Metrics.Inc("resilience.checkpoint_save_failed")
		if c.sp != nil {
			c.sp.Point("checkpoint", obs.F("save", "failed"), obs.F("error", err.Error()))
		}
		return
	}
	c.cfg.Metrics.Inc("resilience.checkpoint_saves")
	c.cfg.Stats.NoteCheckpointSave(len(snap.Done))
}
