package core

import (
	"fmt"
	"testing"

	"chop/internal/obs"
)

// TestPhaseAccountingPreservesDeterminism: attaching a PhaseAccounter is
// observability only — search results with phase accounting on, at one
// worker and at four, must equal the reference walk, as must a run with
// accounting off.
func TestPhaseAccountingPreservesDeterminism(t *testing.T) {
	for _, h := range []Heuristic{Enumeration, Iterative} {
		cfg := exp1Config()
		p := arPartitioning(t, 2, 1)
		preds, err := PredictPartitions(p, cfg)
		if err != nil {
			t.Fatal(err)
		}

		bare, err := Search(p, cfg, preds, h)
		if err != nil {
			t.Fatal(err)
		}

		pcfg := cfg
		pcfg.Phases = obs.NewPhaseAccounter()
		label := fmt.Sprintf("phases h=%s", h)
		want := referenceSearch(t, p, cfg, preds, h)
		for _, workers := range []int{1, 4} {
			searchMatchesReference(t, want, p, pcfg, preds, workers, fmt.Sprintf("%s w=%d", label, workers))
		}
		requireReference(t, want, bare, label+" (accounting off)")

		snap := pcfg.Phases.Snapshot()
		if snap.Trials == 0 {
			t.Fatalf("%s: accounter saw no trials", label)
		}
		if snap.TrialNS <= 0 {
			t.Fatalf("%s: no trial time measured", label)
		}
		inTrial := snap.PhaseNS("schedule") + snap.PhaseNS("xfer") + snap.PhaseNS("integrate")
		if inTrial != snap.TrialNS {
			t.Fatalf("%s: in-trial phases sum to %d ns of %d ns trial time",
				label, inTrial, snap.TrialNS)
		}
	}
}

// TestPhaseAccountingRecordsPredictAndCheckpoint: the out-of-trial phases
// (BAD prediction, checkpoint saves) book on the accounter's global cell.
func TestPhaseAccountingRecordsPredict(t *testing.T) {
	cfg := exp1Config()
	cfg.Phases = obs.NewPhaseAccounter()
	p := arPartitioning(t, 2, 1)
	if _, err := PredictPartitions(p, cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Phases.Snapshot()
	if snap.PhaseNS("predict") <= 0 {
		t.Fatalf("no predict time booked: %+v", snap)
	}
}
