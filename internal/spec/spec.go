// Package spec defines the on-disk JSON problem format consumed by
// cmd/chop: the behavioral specification, component library, chip set,
// memory system, tentative partitioning, clocks, architecture style and
// constraints — the six input groups of paper section 2.2 in one file.
package spec

import (
	"encoding/json"
	"fmt"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/hlspec"
	"chop/internal/lib"
	"chop/internal/mem"
	"chop/internal/stats"
)

// NodeSpec declares one operation of the behavioral specification.
type NodeSpec struct {
	Name  string `json:"name"`
	Op    dfg.Op `json:"op"`
	Width int    `json:"width"`
	Mem   string `json:"mem,omitempty"`
}

// GraphSpec declares the data-flow graph by node names.
type GraphSpec struct {
	Name  string      `json:"name"`
	Nodes []NodeSpec  `json:"nodes"`
	Edges [][2]string `json:"edges"` // [from, to] node names
}

// ConstraintSpec mirrors stats.Constraint with JSON names.
type ConstraintSpec struct {
	Bound   float64 `json:"bound"`
	MinProb float64 `json:"minProb"`
}

func (c ConstraintSpec) toConstraint() stats.Constraint {
	p := c.MinProb
	if p == 0 {
		p = 1
	}
	return stats.Constraint{Bound: c.Bound, MinProb: p}
}

// File is the complete problem description.
type File struct {
	// Graph declares the behavior node by node. Alternatively, Program
	// holds hlspec source (with loops) compiled at load time; exactly one
	// of the two must be provided.
	Graph GraphSpec `json:"graph,omitempty"`
	// Program is an hlspec behavioral program (see internal/hlspec). Width
	// defaults to 16 bits.
	Program string `json:"program,omitempty"`
	Width   int    `json:"width,omitempty"`
	// Library is optional; the paper's Table 1 library is the default.
	Library *lib.Library `json:"library,omitempty"`
	Chips   chip.Set     `json:"chips"`
	Mem     mem.System   `json:"mem,omitempty"`
	// Partitions lists node names per partition.
	Partitions [][]string `json:"partitions"`
	// PartChip maps partition index -> chip index.
	PartChip []int `json:"partChip"`
	// Clocks: main period in ns plus the two derived multipliers.
	MainClockNS  float64        `json:"mainClockNS"`
	DatapathMult int            `json:"datapathMult"`
	TransferMult int            `json:"transferMult"`
	MultiCycle   bool           `json:"multiCycle"`
	Testability  bool           `json:"testability,omitempty"`
	Perf         ConstraintSpec `json:"perf"`
	Delay        ConstraintSpec `json:"delay"`
	Power        ConstraintSpec `json:"power,omitempty"`
	// Heuristic is "E" (enumeration, default) or "I" (iterative).
	Heuristic string `json:"heuristic,omitempty"`
	// Workers selects the search parallelism: 0 or 1 runs serially, N > 1
	// uses N worker goroutines, negative uses all cores. Any worker count
	// produces the identical result. The CLI -workers flag overrides it.
	Workers int `json:"workers,omitempty"`
	// PredictCache sizes a memoizing BAD prediction cache: positive is a
	// capacity in entries, negative selects the default capacity, 0 (the
	// default) disables caching. The CLI -predict-cache flag overrides it.
	PredictCache int `json:"predictCache,omitempty"`
}

// maxWorkers bounds File.Workers. Each worker builds its own integrator
// scratch, and a spec can arrive over the serve API.
const maxWorkers = 1024

// Problem is the parsed, validated form.
type Problem struct {
	Partitioning *core.Partitioning
	Config       core.Config
	Heuristic    core.Heuristic
}

// Parse decodes and validates a spec file.
func Parse(data []byte) (*Problem, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	return f.Build()
}

// Build validates the file and assembles the runnable problem.
func (f *File) Build() (*Problem, error) {
	if f.Program != "" && len(f.Graph.Nodes) > 0 {
		return nil, fmt.Errorf("spec: provide either graph or program, not both")
	}
	var g *dfg.Graph
	byName := map[string]int{}
	if f.Program != "" {
		width := f.Width
		if width == 0 {
			width = 16
		}
		cg, err := hlspec.Compile(f.Graph.Name, f.Program, width)
		if err != nil {
			return nil, err
		}
		g = cg
		for _, n := range g.Nodes {
			byName[n.Name] = n.ID
		}
	} else {
		g = dfg.New(f.Graph.Name)
		for _, ns := range f.Graph.Nodes {
			if _, dup := byName[ns.Name]; dup {
				return nil, fmt.Errorf("spec: duplicate node %q", ns.Name)
			}
			id := g.AddNode(ns.Name, ns.Op, ns.Width)
			g.Nodes[id].Mem = ns.Mem
			byName[ns.Name] = id
		}
		for _, e := range f.Graph.Edges {
			from, ok := byName[e[0]]
			if !ok {
				return nil, fmt.Errorf("spec: edge references unknown node %q", e[0])
			}
			to, ok := byName[e[1]]
			if !ok {
				return nil, fmt.Errorf("spec: edge references unknown node %q", e[1])
			}
			if err := g.Connect(from, to); err != nil {
				return nil, err
			}
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}

	parts := make([][]int, len(f.Partitions))
	if len(parts) == 0 && f.Program != "" {
		// Programs without explicit partitions get a level split matching
		// the chip count.
		if len(f.Chips.Chips) == 0 {
			return nil, fmt.Errorf("spec: a program without partitions needs at least one chip")
		}
		parts = dfg.LevelPartitions(g, len(f.Chips.Chips))
		if len(f.PartChip) == 0 {
			for i := range parts {
				f.PartChip = append(f.PartChip, i)
			}
		}
	}
	for pi, names := range f.Partitions {
		for _, name := range names {
			id, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("spec: partition %d references unknown node %q", pi+1, name)
			}
			parts[pi] = append(parts[pi], id)
		}
	}

	library := f.Library
	if library == nil {
		library = lib.Table1Library()
	} else if err := library.Validate(); err != nil {
		return nil, err
	}

	main := f.MainClockNS
	if main == 0 {
		main = 300
	}
	dm, tm := f.DatapathMult, f.TransferMult
	if dm == 0 {
		dm = 1
	}
	if tm == 0 {
		tm = 1
	}
	cfg := core.Config{
		Lib:    library,
		Style:  bad.Style{MultiCycle: f.MultiCycle, Testability: f.Testability},
		Clocks: bad.Clocks{MainNS: main, DatapathMult: dm, TransferMult: tm},
		Constraints: core.Constraints{
			Perf:  f.Perf.toConstraint(),
			Delay: f.Delay.toConstraint(),
		},
	}
	if f.Power.Bound > 0 {
		cfg.Constraints.Power = f.Power.toConstraint()
	}
	if f.Workers > maxWorkers {
		return nil, fmt.Errorf("spec: workers %d exceeds %d", f.Workers, maxWorkers)
	}
	cfg.Workers = f.Workers
	switch {
	case f.PredictCache > 0:
		cfg.PredictCache = bad.NewPredictCache(f.PredictCache)
	case f.PredictCache < 0:
		cfg.PredictCache = bad.NewPredictCache(0)
	}

	p := &core.Partitioning{
		Graph:    g,
		Parts:    parts,
		PartChip: f.PartChip,
		Chips:    f.Chips,
		Mem:      f.Mem,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}

	h := core.Enumeration
	switch f.Heuristic {
	case "", "E", "e":
	case "I", "i":
		h = core.Iterative
	default:
		return nil, fmt.Errorf("spec: unknown heuristic %q (want E or I)", f.Heuristic)
	}
	return &Problem{Partitioning: p, Config: cfg, Heuristic: h}, nil
}

// Example returns a ready-to-edit spec: the paper's 2-partition AR-filter
// experiment-1 setup.
func Example() *File {
	g := dfg.ARLatticeFilter(16)
	gs := GraphSpec{Name: g.Name}
	for _, n := range g.Nodes {
		gs.Nodes = append(gs.Nodes, NodeSpec{Name: n.Name, Op: n.Op, Width: n.Width, Mem: n.Mem})
	}
	for _, e := range g.Edges {
		gs.Edges = append(gs.Edges, [2]string{g.Nodes[e.From].Name, g.Nodes[e.To].Name})
	}
	parts := dfg.LevelPartitions(g, 2)
	names := make([][]string, len(parts))
	for pi, set := range parts {
		for _, id := range set {
			names[pi] = append(names[pi], g.Nodes[id].Name)
		}
	}
	return &File{
		Graph:        gs,
		Chips:        chip.NewUniformSet(2, chip.MOSISPackages()[1], 4),
		Partitions:   names,
		PartChip:     []int{0, 1},
		MainClockNS:  300,
		DatapathMult: 10,
		TransferMult: 1,
		Perf:         ConstraintSpec{Bound: 30000, MinProb: 1},
		Delay:        ConstraintSpec{Bound: 30000, MinProb: 0.8},
		Heuristic:    "I",
	}
}
