package spec

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"chop/internal/core"
)

func TestExampleRoundTripsAndRuns(t *testing.T) {
	data, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Heuristic != core.Iterative {
		t.Fatalf("heuristic = %v", prob.Heuristic)
	}
	res, _, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) == 0 {
		t.Fatal("example spec must be feasible")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("{")); err == nil {
		t.Fatal("syntax error accepted")
	}

	broken := func(mut func(*File)) error {
		f := Example()
		mut(f)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Parse(data)
		return err
	}

	cases := []struct {
		name string
		mut  func(*File)
		want string
	}{
		{"dup node", func(f *File) { f.Graph.Nodes = append(f.Graph.Nodes, f.Graph.Nodes[0]) }, "duplicate"},
		{"bad edge from", func(f *File) { f.Graph.Edges = append(f.Graph.Edges, [2]string{"nope", "y1"}) }, "unknown node"},
		{"bad edge to", func(f *File) { f.Graph.Edges = append(f.Graph.Edges, [2]string{"y1", "nope"}) }, "unknown node"},
		{"bad partition node", func(f *File) { f.Partitions[0][0] = "ghost" }, "unknown node"},
		{"bad heuristic", func(f *File) { f.Heuristic = "X" }, "heuristic"},
		{"missing chip", func(f *File) { f.PartChip = []int{0} }, "chip"},
	}
	for _, c := range cases {
		err := broken(c.mut)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v (want substring %q)", c.name, err, c.want)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	f := Example()
	f.MainClockNS = 0
	f.DatapathMult = 0
	f.TransferMult = 0
	f.Heuristic = ""
	f.Perf.MinProb = 0
	data, _ := json.Marshal(f)
	prob, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Config.Clocks.MainNS != 300 || prob.Config.Clocks.DatapathMult != 1 {
		t.Fatalf("clock defaults: %+v", prob.Config.Clocks)
	}
	if prob.Config.Lib == nil || prob.Config.Lib.Name != "paper-table-1" {
		t.Fatal("library default missing")
	}
	if prob.Heuristic != core.Enumeration {
		t.Fatal("heuristic default missing")
	}
	if prob.Config.Constraints.Perf.MinProb != 1 {
		t.Fatalf("MinProb default: %v", prob.Config.Constraints.Perf.MinProb)
	}
}

func TestPowerConstraintParsed(t *testing.T) {
	f := Example()
	f.Power = ConstraintSpec{Bound: 500, MinProb: 0.9}
	data, _ := json.Marshal(f)
	prob, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Config.Constraints.Power.Bound != 500 {
		t.Fatalf("power = %+v", prob.Config.Constraints.Power)
	}
}

func TestProgramSpec(t *testing.T) {
	f := &File{
		Program: `
			input a, b
			x = a * 3 + b
			loop 2 {
				x = x + a
			}
			output x
		`,
		Chips:        Example().Chips,
		MainClockNS:  300,
		DatapathMult: 1,
		TransferMult: 1,
		MultiCycle:   true,
		Perf:         ConstraintSpec{Bound: 20000, MinProb: 1},
		Delay:        ConstraintSpec{Bound: 30000, MinProb: 0.8},
		Heuristic:    "I",
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Partitioning.NumParts() != 2 {
		t.Fatalf("auto partitions = %d, want one per chip", prob.Partitioning.NumParts())
	}
	res, _, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) == 0 {
		t.Fatal("program spec infeasible")
	}
}

func TestProgramAndGraphMutuallyExclusive(t *testing.T) {
	f := Example()
	f.Program = "input a\noutput a"
	data, _ := json.Marshal(f)
	if _, err := Parse(data); err == nil {
		t.Fatal("graph+program accepted")
	}
}

func TestBadProgramRejected(t *testing.T) {
	f := &File{Program: "x = undefined_var", Chips: Example().Chips}
	data, _ := json.Marshal(f)
	if _, err := Parse(data); err == nil {
		t.Fatal("broken program accepted")
	}
}

// The spec-bound tests below feed Parse what one untrusted POST
// /api/v1/runs body may carry. Each only parses: none starts a search.

// TestParsePredictCacheDoesNotPreallocate: a spec's predictCache capacity
// bounds the LRU, it is not allocated up front.
func TestParsePredictCacheDoesNotPreallocate(t *testing.T) {
	f := Example()
	f.PredictCache = 1_000_000
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prob, err := Parse(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Config.PredictCache == nil {
		t.Fatal("predictCache > 0 built no cache")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Parse allocated %d MB for a %d-entry cache hint", grew>>20, f.PredictCache)
	}
}

// TestParseRejectsHugeWorkers: a worker count past the bound is refused at
// parse time instead of overflowing the shard count (or spawning a
// goroutine per worker) once the search starts.
func TestParseRejectsHugeWorkers(t *testing.T) {
	for _, w := range []int{maxWorkers + 1, 2305843009213693952} {
		f := Example()
		f.Workers = w
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), "workers") {
			t.Fatalf("workers=%d: err = %v, want a workers bound error", w, err)
		}
	}
	f := Example()
	f.Workers = maxWorkers
	data, _ := json.Marshal(f)
	if _, err := Parse(data); err != nil {
		t.Fatalf("workers=%d (the bound) rejected: %v", maxWorkers, err)
	}
}

// TestParseRejectsRunawayUnrolling: nested loop counts that unroll past
// hlspec's node or work bound are refused — both a body that adds nodes
// every iteration and an empty one that only burns time.
func TestParseRejectsRunawayUnrolling(t *testing.T) {
	for name, prog := range map[string]string{
		"nodes": "input a\nx = a + a\nloop 300 {\nloop 300 {\nx = x + a\n}\n}\noutput x",
		"work":  "input a\nx = a + a\nloop 3000 {\nloop 3000 {\n}\n}\noutput x",
	} {
		f := &File{Program: prog, Chips: Example().Chips}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), "unrolls past") {
			t.Fatalf("%s: err = %v, want an unrolling bound error", name, err)
		}
	}
}
