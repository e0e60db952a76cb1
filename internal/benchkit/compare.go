package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Delta is the comparison of one workload across two reports.
type Delta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Pct        float64 // (new-old)/old, percent; positive = slower
	Regression bool    // Pct >= the time tolerance
	// Allocation budget comparison (gated when Tolerances.AllocPct > 0).
	OldAllocs       float64
	NewAllocs       float64
	AllocPct        float64 // allocs/op growth, percent
	AllocRegression bool    // AllocPct >= the alloc tolerance
}

// Tolerances bounds how much a workload may regress before CompareWith
// flags it. A non-positive field disables that gate.
type Tolerances struct {
	// TimePct is the allowed ns/op growth in percent.
	TimePct float64
	// AllocPct is the allowed allocs/op growth in percent. Allocation
	// counts are far less noisy than wall time, so this gate can run
	// tighter than the time gate.
	AllocPct float64
}

// Compare matches workloads by name and flags every one whose ns/op grew
// by at least tolerancePct percent. Workloads present in only one report
// are skipped (the harness evolves; renames must not fail CI). The second
// return value reports whether any regression was found.
func Compare(old, cur *Report, tolerancePct float64) ([]Delta, bool) {
	return CompareWith(old, cur, Tolerances{TimePct: tolerancePct})
}

// CompareWith is Compare with the full tolerance set: ns/op against
// TimePct and allocs/op against AllocPct, each gate active only when its
// tolerance is positive.
func CompareWith(old, cur *Report, tol Tolerances) ([]Delta, bool) {
	oldByName := make(map[string]Result, len(old.Workloads))
	for _, w := range old.Workloads {
		oldByName[w.Name] = w
	}
	var deltas []Delta
	regressed := false
	for _, w := range cur.Workloads {
		o, ok := oldByName[w.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		d := Delta{
			Name:      w.Name,
			OldNs:     o.NsPerOp,
			NewNs:     w.NsPerOp,
			OldAllocs: o.AllocsPerOp,
			NewAllocs: w.AllocsPerOp,
		}
		d.Pct, d.Regression = gate(o.NsPerOp, w.NsPerOp, tol.TimePct)
		d.AllocPct, d.AllocRegression = gate(o.AllocsPerOp, w.AllocsPerOp, tol.AllocPct)
		regressed = regressed || d.Regression || d.AllocRegression
		deltas = append(deltas, d)
	}
	return deltas, regressed
}

// gate is the one regression rule every comparison shares: it returns
// cur's growth over old in percent and whether that growth reaches tolPct.
// A non-positive tolPct disables the gate; a non-positive old has no
// baseline to grow from and reports (0, false).
func gate(old, cur, tolPct float64) (pct float64, regressed bool) {
	if old <= 0 {
		return 0, false
	}
	pct = (cur - old) / old * 100
	return pct, tolPct > 0 && pct >= tolPct
}

// FormatDeltas renders a comparison table, slowest-regressing first kept
// in report order for stable diffs, flagging regressions.
func FormatDeltas(deltas []Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %8s %14s %8s\n",
		"workload", "old ms/op", "new ms/op", "delta", "allocs/op", "delta")
	for _, d := range deltas {
		flag := ""
		if d.Regression {
			flag = "  REGRESSION(time)"
		}
		if d.AllocRegression {
			flag += "  REGRESSION(allocs)"
		}
		fmt.Fprintf(&b, "%-24s %12.3f %12.3f %+7.1f%% %14.0f %+7.1f%%%s\n",
			d.Name, d.OldNs/1e6, d.NewNs/1e6, d.Pct, d.NewAllocs, d.AllocPct, flag)
	}
	return b.String()
}

// Save writes the report as indented JSON.
func (r *Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report and checks its schema family.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !knownSchemas[r.Schema] {
		return nil, fmt.Errorf("%s: schema %q, this harness speaks %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// NextPath returns the first unused BENCH_<n>.json path in dir, numbering
// from 1, so successive harness runs accumulate a perf trajectory.
func NextPath(dir string) (string, error) {
	for n := 1; n < 10000; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
	return "", fmt.Errorf("benchkit: no free BENCH_<n>.json slot in %s", dir)
}
