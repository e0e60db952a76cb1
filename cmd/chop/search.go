package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"chop/internal/core"
	"chop/internal/spec"
)

// searchCmd runs the design-space search for a spec in-process: like eval,
// but result-focused — -json emits the merged SearchResult on stdout.
func searchCmd(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	file := fs.String("f", "", "partitioning spec file (JSON)")
	jsonOut := fs.Bool("json", false, "print the merged search result as indented JSON on stdout (summary moves to stderr)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("search: -f spec.json required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	prob, err := spec.Parse(data)
	if err != nil {
		return err
	}
	finish, err := of.attach(&prob.Config)
	if err != nil {
		return err
	}

	start := time.Now()
	res, preds, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	if ferr := finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	// With -json, stdout carries only the result document, so the summary
	// moves aside.
	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = os.Stderr
	}
	fmt.Fprintf(out, "partitions: %d on %d chips, heuristic %s, %s\n",
		prob.Partitioning.NumParts(), len(prob.Partitioning.Chips.Chips),
		prob.Heuristic, elapsed.Round(time.Millisecond))
	for i, r := range preds {
		fmt.Fprintf(out, "  partition %d: %d predictions, %d kept, %d feasible\n",
			i+1, r.Total, len(r.Designs), r.Feasible)
	}
	fmt.Fprintf(out, "trials: %d, feasible: %d, non-inferior: %d\n",
		res.Trials, res.FeasibleTrials, len(res.Best))
	for _, b := range res.Best {
		fmt.Fprintf(out, "  interval=%d cycles  delay=%d cycles  clock=%.0f ns  (perf %.0f ns, delay %.0f ns)\n",
			b.IIMain, b.DelayMain, b.Clock.ML, b.PerfNS.ML, b.DelayNS.ML)
	}
	if *jsonOut {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
	}
	return nil
}
