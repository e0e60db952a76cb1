package spec

import (
	"encoding/json"
	"testing"
)

// FuzzSpecParse feeds Parse what a POST /api/v1/runs body may carry. It
// must never panic, and what it accepts stays inside the parse-time
// bounds: a worker count within maxWorkers and a graph no larger than the
// input (a graph spec) or hlspec's unrolling bound plus one statement (a
// program).
func FuzzSpecParse(f *testing.F) {
	example, err := json.Marshal(Example())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	prog, err := json.Marshal(&File{
		Program: "input a, b\nx = a * 3 + b\nloop 2 {\nx = x + a\n}\noutput x\n",
		Chips:   Example().Chips,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prog)
	f.Add([]byte(`{"program":"input a\nloop 9 {\nloop 9 {\na = a + a\n}\n}\noutput a","chips":{"chips":[]}}`))
	f.Add([]byte(`{"workers":2305843009213693952,"predictCache":100000000}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		prob, err := Parse(data)
		if err != nil {
			return
		}
		if w := prob.Config.Workers; w > maxWorkers {
			t.Fatalf("accepted workers=%d", w)
		}
		if n := len(prob.Partitioning.Graph.Nodes); n > 1<<16+len(data) {
			t.Fatalf("accepted a %d-node graph from %d bytes", n, len(data))
		}
	})
}
