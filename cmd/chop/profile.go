package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"chop/internal/benchkit"
)

// profile runs one benchkit workload serially under CPU + heap profiling
// with per-phase time and allocation attribution, and optionally gates the
// measurement against a committed baseline:
//
//	chop profile -dir profiles/run1                 # record + attribute
//	chop profile -compare profiles/baseline         # diff, exit 1 on regression
//
// The attribution table breaks each search trial into the pipeline's named
// phases (predict, cache-lookup, schedule, xfer, integrate, checkpoint,
// compile);
// the saved cpu.pprof carries matching pprof labels (workload, run, phase,
// shard) so `go tool pprof -tagfocus` slices along the same axes.
func profile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	workload := fs.String("workload", benchkit.DefaultProfileWorkload,
		"workload to profile (must have a profiled variant; see error output for the list)")
	dir := fs.String("dir", "", "directory for cpu.pprof, heap.pprof and profile.json (empty: measure only)")
	short := fs.Bool("short", false, "use the small measurement budget (CI-friendly)")
	compare := fs.String("compare", "", "baseline profile.json (or its directory); exits non-zero on regression")
	allocTol := fs.Float64("alloc-tolerance", 10, "allocs/op regression tolerance in percent for -compare (0 disables)")
	timeTol := fs.Float64("time-tolerance", 0, "ns/op regression tolerance in percent for -compare (0 disables; profiled wall time is noisy)")
	jsonOut := fs.Bool("json", false, "print the profile report as JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := benchkit.RunProfile(benchkit.ProfileOptions{
		Workload: *workload,
		Dir:      *dir,
		Short:    *short,
		Log:      os.Stderr,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(benchkit.FormatProfile(rep))
	}
	if *dir != "" {
		fmt.Fprintf(os.Stderr, "profiles written to %s (inspect with: go tool pprof %s/cpu.pprof; gate with: chop profile -compare %s)\n",
			*dir, *dir, *dir)
	}

	if *compare == "" {
		return nil
	}
	base, err := benchkit.LoadProfile(*compare)
	if err != nil {
		return err
	}
	if mm := base.Build.Mismatches(rep.Build); len(mm) > 0 {
		for _, m := range mm {
			fmt.Fprintf(os.Stderr, "profile: warning: baseline environment differs: %s\n", m)
		}
	}
	delta, regressed, err := benchkit.CompareProfiles(base, rep, benchkit.Tolerances{
		TimePct:  *timeTol,
		AllocPct: *allocTol,
	})
	if err != nil {
		return err
	}
	fmt.Println(benchkit.FormatProfileDelta(delta))
	if regressed {
		return fmt.Errorf("profile: regression against baseline %s", *compare)
	}
	fmt.Printf("no regression against baseline %s\n", *compare)
	return nil
}
