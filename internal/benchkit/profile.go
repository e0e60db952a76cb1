package benchkit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"chop/internal/obs"
)

// This file implements the measurement engine behind `chop profile`: run
// one workload serially under CPU + heap profiling with a PhaseAccounter
// in alloc mode, emit a phase-attribution report (time %, allocs/op,
// B/op per phase), and diff it against a committed baseline so the
// upcoming hot-path work lands against a pinned allocation budget.

// ProfileSchemaVersion identifies the profile report layout.
const ProfileSchemaVersion = "chop-profile/1"

// knownProfileSchemas lists the profile report versions LoadProfile
// accepts.
var knownProfileSchemas = map[string]bool{
	"chop-profile/1": true,
}

// ProfileFileName is the attribution report's file name inside a profile
// run directory, next to cpu.pprof and heap.pprof.
const ProfileFileName = "profile.json"

// PhaseRow is one phase's per-op attribution in a profile report.
type PhaseRow struct {
	Phase string `json:"phase"`
	// TimePct is the phase's share of total attributed time.
	TimePct float64 `json:"time_pct"`
	// NsPerOp, AllocsPerOp and BytesPerOp are the phase's cost per
	// workload iteration.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ProfileReport is one `chop profile` measurement.
type ProfileReport struct {
	Schema   string `json:"schema"`
	Created  string `json:"created"` // RFC 3339, UTC
	Workload string `json:"workload"`
	Iters    int    `json:"iters"`
	// Whole-workload per-op costs, comparable to a bench Result.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// CoveragePct is the share of measured trial wall time the in-trial
	// phases account for (the >= 95% acceptance invariant).
	CoveragePct float64    `json:"coverage_pct"`
	Phases      []PhaseRow `json:"phases"`
	Build       *BuildEnv  `json:"build,omitempty"`
}

// ProfileOptions parameterizes RunProfile.
type ProfileOptions struct {
	// Workload selects the profiled workload by exact name; "" selects
	// DefaultProfileWorkload. The workload must provide ProfiledRun.
	Workload string
	// Dir receives cpu.pprof, heap.pprof and profile.json; "" disables
	// artifact writing (measurement only).
	Dir string
	// Short selects the small measurement budget.
	Short bool
	// MinTime overrides the measurement budget (0: 500ms, 100ms short).
	MinTime time.Duration
	// MaxIters caps the iterations (0: 1000).
	MaxIters int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultProfileWorkload is the workload `chop profile` measures when
// none is named: the search hot path the next perf PRs target.
const DefaultProfileWorkload = "search/stress/w1"

func (o ProfileOptions) minTime() time.Duration {
	if o.MinTime > 0 {
		return o.MinTime
	}
	if o.Short {
		return 100 * time.Millisecond
	}
	return 500 * time.Millisecond
}

func (o ProfileOptions) maxIters() int {
	if o.MaxIters > 0 {
		return o.MaxIters
	}
	return 1000
}

// findProfiled resolves a workload name to its ProfiledRun.
func findProfiled(name string) (Workload, error) {
	var profiled []string
	for _, w := range Workloads() {
		if w.ProfiledRun != nil {
			profiled = append(profiled, w.Name)
		}
		if w.Name == name {
			if w.ProfiledRun == nil {
				return Workload{}, fmt.Errorf(
					"benchkit: workload %q has no profiled variant", name)
			}
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("benchkit: unknown workload %q (profiled workloads: %s)",
		name, strings.Join(profiled, ", "))
}

// RunProfile measures one workload under phase attribution and, when
// opts.Dir is set, CPU + heap profiling, writing the artifacts there.
// The workload runs serially (Workers = 1 inside ProfiledRun) so the
// accounter's alloc mode attributes allocation deltas per phase.
func RunProfile(opts ProfileOptions) (*ProfileReport, error) {
	name := opts.Workload
	if name == "" {
		name = DefaultProfileWorkload
	}
	w, err := findProfiled(name)
	if err != nil {
		return nil, err
	}

	var prof *obs.Profiler
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		prof, err = obs.StartProfiler(obs.ProfileConfig{
			CPUFile: filepath.Join(opts.Dir, "cpu.pprof"),
			MemFile: filepath.Join(opts.Dir, "heap.pprof"),
		})
		if err != nil {
			return nil, err
		}
	}

	pa := obs.NewPhaseAccounter()
	pa.EnableAllocCounting()
	// One warm-up iteration outside the measurement: lazy singletons
	// (the shared stress problem) must not pollute the attribution. It
	// counts allocations too, so the runtime's one-time growth under the
	// counter's stop-the-world reads (the Ms that restart the world)
	// happens here, not inside a measured phase.
	warm := obs.NewPhaseAccounter()
	warm.EnableAllocCounting()
	if err := w.ProfiledRun(warm); err != nil {
		prof.Stop()
		return nil, fmt.Errorf("benchkit: %s: %w", w.Name, err)
	}

	runtime.GC()
	start := time.Now()
	iters := 0
	minTime, maxIters := opts.minTime(), opts.maxIters()
	for {
		// The workload label slices the CPU profile; the run/phase/shard
		// labels underneath come from the engine itself.
		var rerr error
		obs.DoLabeled(nil, func(context.Context) {
			rerr = w.ProfiledRun(pa)
		}, "workload", w.Name)
		if rerr != nil {
			prof.Stop()
			return nil, fmt.Errorf("benchkit: %s: %w", w.Name, rerr)
		}
		iters++
		if time.Since(start) >= minTime || iters >= maxIters {
			break
		}
	}
	elapsed := time.Since(start)
	if err := prof.Stop(); err != nil {
		return nil, err
	}

	rep := buildProfileReport(w.Name, iters, elapsed, pa.Snapshot())
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "profile: %-24s %4d iters  %10.2f ms/op  %9.0f allocs/op  coverage %.1f%%\n",
			w.Name, rep.Iters, rep.NsPerOp/1e6, rep.AllocsPerOp, rep.CoveragePct)
	}
	if opts.Dir != "" {
		if err := rep.Save(filepath.Join(opts.Dir, ProfileFileName)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// buildProfileReport folds a phase snapshot into the per-op report.
func buildProfileReport(name string, iters int, elapsed time.Duration, snap *obs.PhaseSnapshot) *ProfileReport {
	rep := &ProfileReport{
		Schema:      ProfileSchemaVersion,
		Created:     time.Now().UTC().Format(time.RFC3339),
		Workload:    name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()-snap.ReadNS) / float64(iters),
		CoveragePct: snap.CoveragePct,
		Build:       ReadBuildEnv(),
	}
	for _, p := range snap.Phases {
		rep.Phases = append(rep.Phases, PhaseRow{
			Phase:       p.Phase,
			TimePct:     p.TimePct,
			NsPerOp:     float64(p.NS) / float64(iters),
			AllocsPerOp: float64(p.Allocs) / float64(iters),
			BytesPerOp:  float64(p.Bytes) / float64(iters),
		})
		rep.AllocsPerOp += float64(p.Allocs) / float64(iters)
		rep.BytesPerOp += float64(p.Bytes) / float64(iters)
	}
	return rep
}

// Save writes the profile report as indented JSON.
func (r *ProfileReport) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadProfile reads a profile report, accepting a run directory (the
// profile.json inside it) or the report file itself.
func LoadProfile(path string) (*ProfileReport, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, ProfileFileName)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ProfileReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !knownProfileSchemas[r.Schema] {
		return nil, fmt.Errorf("%s: schema %q, this harness speaks %q",
			path, r.Schema, ProfileSchemaVersion)
	}
	return &r, nil
}

// ProfileDelta is the whole-workload comparison of two profile reports.
type ProfileDelta struct {
	Workload string
	// Time and alloc growth in percent (positive = worse).
	TimePct  float64
	AllocPct float64
	BytesPct float64
	// TimeRegression / AllocRegression flag gate violations.
	TimeRegression  bool
	AllocRegression bool
}

// CompareProfiles gates a current profile against a baseline. Allocation
// counts gate at tol.AllocPct (they are nearly deterministic in a serial
// run); wall time gates at tol.TimePct only when positive, since a
// profiled run's ns/op carries profiling overhead noise. The reports
// must describe the same workload.
func CompareProfiles(old, cur *ProfileReport, tol Tolerances) (ProfileDelta, bool, error) {
	if old.Workload != cur.Workload {
		return ProfileDelta{}, false, fmt.Errorf(
			"benchkit: baseline profiles %q, current run profiles %q", old.Workload, cur.Workload)
	}
	d := ProfileDelta{Workload: cur.Workload}
	if old.NsPerOp > 0 {
		d.TimePct = (cur.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		if tol.TimePct > 0 {
			d.TimeRegression = d.TimePct >= tol.TimePct
		}
	}
	if old.AllocsPerOp > 0 {
		d.AllocPct = (cur.AllocsPerOp - old.AllocsPerOp) / old.AllocsPerOp * 100
		if tol.AllocPct > 0 {
			d.AllocRegression = d.AllocPct >= tol.AllocPct
		}
	}
	if old.BytesPerOp > 0 {
		d.BytesPct = (cur.BytesPerOp - old.BytesPerOp) / old.BytesPerOp * 100
	}
	return d, d.TimeRegression || d.AllocRegression, nil
}

// FormatProfile renders the phase-attribution table.
func FormatProfile(r *ProfileReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  workload %s  %d iters  %.2f ms/op  %.0f allocs/op  %s/op\n",
		r.Schema, r.Workload, r.Iters, r.NsPerOp/1e6, r.AllocsPerOp,
		formatBytes(int64(r.BytesPerOp)))
	fmt.Fprintf(&b, "%-14s %8s %12s %14s %12s\n",
		"phase", "time %", "ms/op", "allocs/op", "KB/op")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-14s %7.1f%% %12.3f %14.1f %12.1f\n",
			p.Phase, p.TimePct, p.NsPerOp/1e6, p.AllocsPerOp, p.BytesPerOp/1024)
	}
	fmt.Fprintf(&b, "trial coverage: %.1f%% of measured trial wall time attributed\n", r.CoveragePct)
	return b.String()
}

// FormatProfileDelta renders one baseline comparison line.
func FormatProfileDelta(d ProfileDelta) string {
	var flags []string
	if d.TimeRegression {
		flags = append(flags, "REGRESSION(time)")
	}
	if d.AllocRegression {
		flags = append(flags, "REGRESSION(allocs)")
	}
	suffix := ""
	if len(flags) > 0 {
		suffix = "  " + strings.Join(flags, "  ")
	}
	return fmt.Sprintf("%-24s time %+7.1f%%  allocs %+7.1f%%  bytes %+7.1f%%%s",
		d.Workload, d.TimePct, d.AllocPct, d.BytesPct, suffix)
}
