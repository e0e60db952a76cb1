// Package dfg implements the behavioral specification input of CHOP: an
// acyclic data-flow graph of operations connected by value edges (paper
// section 2.2, first input group). Inner loops are assumed unrolled so the
// graph is acyclic (paper section 2.3).
//
// Primary inputs and outputs are represented as explicit OpInput/OpOutput
// nodes. They consume no functional units and take no schedule time, but
// they anchor the off-chip data transfers that CHOP must account for.
package dfg

import (
	"fmt"
	"slices"
	"sort"
)

// Op identifies the operation type a node performs. Library modules are
// matched to nodes by Op.
type Op string

// Operation types understood by the default libraries.
const (
	OpInput  Op = "input"  // primary input (no hardware)
	OpOutput Op = "output" // primary output (no hardware)
	OpAdd    Op = "add"
	OpSub    Op = "sub"
	OpMul    Op = "mul"
	OpDiv    Op = "div"
	OpCmp    Op = "cmp"
	OpMemRd  Op = "memrd" // memory read (memory-mapped I/O)
	OpMemWr  Op = "memwr" // memory write
)

// IsIO reports whether the op is a primary input or output marker.
func (o Op) IsIO() bool { return o == OpInput || o == OpOutput }

// IsMemory reports whether the op is a memory access.
func (o Op) IsMemory() bool { return o == OpMemRd || o == OpMemWr }

// NeedsFU reports whether the op occupies a functional unit during
// scheduling. I/O markers and memory accesses are handled by dedicated
// transfer/memory machinery instead.
func (o Op) NeedsFU() bool { return !o.IsIO() && !o.IsMemory() }

// Node is a single operation in the behavioral specification.
type Node struct {
	ID    int    // dense index into Graph.Nodes
	Name  string // human-readable label, unique within a graph
	Op    Op
	Width int // bit width of the produced value
	// Mem names the memory block accessed by OpMemRd/OpMemWr nodes; empty
	// otherwise.
	Mem string
	// Coef is the constant operand of an operation fed by fewer data values
	// than its arity (e.g. a coefficient multiplier); HasCoef marks it set.
	// Purely semantic: it affects simulation, not prediction.
	Coef    int64
	HasCoef bool
}

// Coefficient returns the constant operand of an under-fed operation: the
// declared constant when present, otherwise a deterministic node-dependent
// default. The simulator, the RTL emitter and generated testbenches all use
// this single rule so synthesized hardware matches the golden model.
func (n Node) Coefficient() int64 {
	if n.HasCoef {
		return n.Coef
	}
	return int64(n.ID%7) + 1
}

// Edge is a data dependency: the value produced by From is consumed by To.
// Width is the bit width of the transferred value (the producer's width).
type Edge struct {
	From, To int
	Width    int
}

// Graph is an acyclic data-flow graph. Create one with New and populate it
// with AddNode/Connect; most analyses require Validate to pass first.
type Graph struct {
	Name  string
	Nodes []Node
	Edges []Edge

	succ [][]int // adjacency, rebuilt lazily
	pred [][]int
	dirt bool
}

// New returns an empty graph with the given name.
func New(name string) *Graph { return &Graph{Name: name, dirt: true} }

// AddNode appends a node and returns its ID. Width must be positive for
// value-producing nodes; OpOutput nodes inherit the width of their input
// when width is 0.
func (g *Graph) AddNode(name string, op Op, width int) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Name: name, Op: op, Width: width})
	g.dirt = true
	return id
}

// AddMemNode appends a memory access node bound to the named memory block.
func (g *Graph) AddMemNode(name string, op Op, width int, mem string) int {
	id := g.AddNode(name, op, width)
	g.Nodes[id].Mem = mem
	return id
}

// Connect adds a data dependency from -> to. The edge width is the producer
// node's width.
func (g *Graph) Connect(from, to int) error {
	if from < 0 || from >= len(g.Nodes) {
		return fmt.Errorf("dfg: connect: source node %d out of range", from)
	}
	if to < 0 || to >= len(g.Nodes) {
		return fmt.Errorf("dfg: connect: destination node %d out of range", to)
	}
	if from == to {
		return fmt.Errorf("dfg: connect: self-loop on node %d (%s)", from, g.Nodes[from].Name)
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Width: g.Nodes[from].Width})
	g.dirt = true
	return nil
}

// MustConnect is Connect but panics on error; for use in builders with
// statically known node IDs.
func (g *Graph) MustConnect(from, to int) {
	if err := g.Connect(from, to); err != nil {
		panic(err)
	}
}

func (g *Graph) build() {
	if !g.dirt {
		return
	}
	// Each node's lists are capacity-limited windows of one backing
	// array per direction, filled in edge order.
	n := len(g.Nodes)
	g.succ = make([][]int, n)
	g.pred = make([][]int, n)
	nout := make([]int, n)
	nin := make([]int, n)
	for _, e := range g.Edges {
		nout[e.From]++
		nin[e.To]++
	}
	succ := make([]int, len(g.Edges))
	pred := make([]int, len(g.Edges))
	so, po := 0, 0
	for id := range g.Nodes {
		g.succ[id] = succ[so : so : so+nout[id]]
		g.pred[id] = pred[po : po : po+nin[id]]
		so += nout[id]
		po += nin[id]
	}
	for _, e := range g.Edges {
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
	}
	g.dirt = false
}

// Succs returns the IDs of nodes consuming the value of id. The returned
// slice must not be modified.
func (g *Graph) Succs(id int) []int { g.build(); return g.succ[id] }

// Preds returns the IDs of nodes producing inputs of id. The returned slice
// must not be modified.
func (g *Graph) Preds(id int) []int { g.build(); return g.pred[id] }

// Validate checks structural invariants: unique non-empty names, positive
// widths on producers, acyclicity, inputs have no predecessors, outputs have
// no successors and exactly one predecessor.
func (g *Graph) Validate() error {
	names := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("dfg %q: node %d has empty name", g.Name, n.ID)
		}
		if names[n.Name] {
			return fmt.Errorf("dfg %q: duplicate node name %q", g.Name, n.Name)
		}
		names[n.Name] = true
		if n.Width <= 0 && n.Op != OpOutput {
			return fmt.Errorf("dfg %q: node %q has non-positive width %d", g.Name, n.Name, n.Width)
		}
		if n.Op.IsMemory() && n.Mem == "" {
			return fmt.Errorf("dfg %q: memory node %q has no memory block", g.Name, n.Name)
		}
	}
	g.build()
	for _, n := range g.Nodes {
		switch n.Op {
		case OpInput:
			if len(g.pred[n.ID]) != 0 {
				return fmt.Errorf("dfg %q: input %q has predecessors", g.Name, n.Name)
			}
		case OpOutput:
			if len(g.succ[n.ID]) != 0 {
				return fmt.Errorf("dfg %q: output %q has successors", g.Name, n.Name)
			}
			if len(g.pred[n.ID]) != 1 {
				return fmt.Errorf("dfg %q: output %q must have exactly one producer, has %d",
					g.Name, n.Name, len(g.pred[n.ID]))
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns node IDs in a topological order, or an error naming a
// node on a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	g.build()
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	queue := make([]int, 0, len(g.Nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.Nodes))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("dfg %q: cycle through node %q", g.Name, g.Nodes[i].Name)
			}
		}
	}
	return order, nil
}

// OpCounts returns how many nodes of each FU-consuming op the graph has.
func (g *Graph) OpCounts() map[Op]int {
	m := make(map[Op]int)
	for _, n := range g.Nodes {
		if n.Op.NeedsFU() {
			m[n.Op]++
		}
	}
	return m
}

// FUOps returns the distinct FU-consuming ops of the graph in sorted
// order: the dense op indexing the compiled scheduler and allocation
// estimate share.
func (g *Graph) FUOps() []Op {
	var ops []Op
	for _, n := range g.Nodes {
		if n.Op.NeedsFU() && !slices.Contains(ops, n.Op) {
			ops = append(ops, n.Op)
		}
	}
	slices.Sort(ops)
	return ops
}

// Inputs returns the IDs of all primary-input nodes in ID order.
func (g *Graph) Inputs() []int { return g.nodesWithOp(OpInput) }

// Outputs returns the IDs of all primary-output nodes in ID order.
func (g *Graph) Outputs() []int { return g.nodesWithOp(OpOutput) }

func (g *Graph) nodesWithOp(op Op) []int {
	var ids []int
	for _, n := range g.Nodes {
		if n.Op == op {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Levels returns the unit-delay ASAP level of every node (inputs at level 0).
// I/O nodes occupy the level of their neighbors but add no depth themselves.
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	lv := make([]int, len(g.Nodes))
	for _, id := range order {
		max := 0
		for _, p := range g.pred[id] {
			d := lv[p]
			if g.Nodes[p].Op.NeedsFU() {
				d++
			}
			if d > max {
				max = d
			}
		}
		lv[id] = max
	}
	return lv, nil
}

// CriticalPath returns the maximum sum of delay(node) over any path, where
// delay is supplied per node (I/O nodes should be given zero delay by the
// caller's function if desired).
func (g *Graph) CriticalPath(delay func(Node) float64) (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]float64, len(g.Nodes))
	var cp float64
	for _, id := range order {
		var start float64
		for _, p := range g.pred[id] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[id] = start + delay(g.Nodes[id])
		if finish[id] > cp {
			cp = finish[id]
		}
	}
	return cp, nil
}

// Subgraph returns the induced subgraph over the given node IDs. Node IDs
// are renumbered densely; the returned map translates old ID -> new ID.
// Edges with exactly one endpoint inside the set are dropped (they become
// inter-partition transfers handled by package xfer).
func (g *Graph) Subgraph(name string, ids []int) (*Graph, map[int]int) {
	sub, local := g.subgraph(name, ids, 0)
	return sub, remapOf(ids, local)
}

// subgraph is Subgraph with the renumbering as a slice over g's nodes: the
// subgraph ID of each node in the set, -1 for the others. The subgraph has
// room for extra more nodes.
func (g *Graph) subgraph(name string, ids []int, extra int) (*Graph, []int) {
	local := make([]int, len(g.Nodes))
	for i := range local {
		local[i] = -1
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	sub := New(name)
	sub.Nodes = make([]Node, 0, len(sorted)+extra)
	for _, id := range sorted {
		n := g.Nodes[id]
		nid := sub.AddNode(n.Name, n.Op, n.Width)
		sub.Nodes[nid].Mem = n.Mem
		sub.Nodes[nid].Coef = n.Coef
		sub.Nodes[nid].HasCoef = n.HasCoef
		local[id] = nid
	}
	for _, e := range g.Edges {
		if local[e.From] >= 0 && local[e.To] >= 0 {
			sub.Edges = append(sub.Edges, Edge{From: local[e.From], To: local[e.To], Width: e.Width})
		}
	}
	sub.dirt = true
	return sub, local
}

// remapOf returns the renumbering of ids as a map.
func remapOf(ids, local []int) map[int]int {
	remap := make(map[int]int, len(ids))
	for _, id := range ids {
		remap[id] = local[id]
	}
	return remap
}

// Cut describes the set of values flowing from one block of a partitioning
// to another. Bits is the total payload per sample; Values is the number of
// distinct source values (each needs its own buffer slot).
type Cut struct {
	From, To int // partition indices; -1 denotes the external world
	Bits     int
	Values   int
}

// CutsBetween computes, for a node->partition assignment, the aggregate data
// flow between every ordered pair of partitions, including flows from the
// external world (primary inputs, From = -1) and to it (primary outputs,
// To = -1). A value consumed by several nodes of the same destination
// partition is counted once (it is transferred once and fanned out on-chip).
func (g *Graph) CutsBetween(assign map[int]int) []Cut {
	g.build()
	type key struct{ from, to int }
	seen := make(map[key]map[int]bool) // key -> set of source node IDs
	bits := make(map[key]int)
	record := func(from, to, src int, width int) {
		k := key{from, to}
		set := seen[k]
		if set == nil {
			set = make(map[int]bool)
			seen[k] = set
		}
		if !set[src] {
			set[src] = true
			bits[k] += width
		}
	}
	for _, e := range g.Edges {
		src, dst := g.Nodes[e.From], g.Nodes[e.To]
		pf, okF := assign[e.From]
		pt, okT := assign[e.To]
		switch {
		case src.Op == OpInput && okT:
			record(-1, pt, e.From, e.Width)
		case dst.Op == OpOutput && okF:
			record(pf, -1, e.From, e.Width)
		case okF && okT && pf != pt:
			record(pf, pt, e.From, e.Width)
		}
	}
	keys := make([]key, 0, len(bits))
	for k := range bits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	cuts := make([]Cut, 0, len(keys))
	for _, k := range keys {
		cuts = append(cuts, Cut{From: k.from, To: k.to, Bits: bits[k], Values: len(seen[k])})
	}
	return cuts
}

// PartitionDAG returns, for a node->partition assignment over nPart
// partitions, the partition-level dependency adjacency matrix: dep[i][j] is
// true when some value flows from partition i to partition j. CHOP requires
// this relation to be acyclic (paper 2.3: "no two partitions should have
// mutual data dependency").
func (g *Graph) PartitionDAG(assign map[int]int, nPart int) [][]bool {
	dep := make([][]bool, nPart)
	for i := range dep {
		dep[i] = make([]bool, nPart)
	}
	for _, e := range g.Edges {
		pf, okF := assign[e.From]
		pt, okT := assign[e.To]
		if okF && okT && pf != pt {
			dep[pf][pt] = true
		}
	}
	return dep
}

// PartitionGraph returns the induced subgraph over ids with the partition's
// boundary made explicit: every value arriving from outside the set (a
// primary input or another partition's operation) appears as an OpInput
// marker named after its producer, and every value leaving the set feeds an
// OpOutput marker named "out:<producer>". Markers carry the producer's
// width, so the predictor accounts for the storage of incoming values and
// the handoff of outgoing ones, and the co-simulator can route values
// between partition netlists by name.
//
// The returned map translates original node IDs to subgraph IDs (markers
// are not in the map).
func (g *Graph) PartitionGraph(name string, ids []int) (*Graph, map[int]int) {
	inSet := make([]bool, len(g.Nodes))
	for _, id := range ids {
		inSet[id] = true
	}
	// Every boundary edge adds at most one marker.
	toSet, boundary := 0, 0
	for _, e := range g.Edges {
		if inSet[e.To] {
			toSet++
		}
		if inSet[e.From] != inSet[e.To] {
			boundary++
		}
	}
	sub, local := g.subgraph(name, ids, boundary)
	// Incoming values: one marker per external producer; marker[id] is 1
	// plus the subgraph ID of id's marker, 0 while it has none.
	marker := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		if inSet[e.To] && !inSet[e.From] && marker[e.From] == 0 {
			src := g.Nodes[e.From]
			marker[e.From] = sub.AddNode(src.Name, OpInput, src.Width) + 1
		}
	}
	// Rebuild the edge list in original-graph order, so operand order
	// matches the original graph even where external operands now come
	// from markers.
	edges := make([]Edge, 0, toSet+boundary)
	for _, e := range g.Edges {
		switch {
		case !inSet[e.To]:
		case inSet[e.From]:
			edges = append(edges, Edge{From: local[e.From], To: local[e.To], Width: e.Width})
		default:
			edges = append(edges, Edge{From: marker[e.From] - 1, To: local[e.To], Width: e.Width})
		}
	}
	sub.Edges = edges
	sub.dirt = true
	// Outgoing values: one marker per producer with an external consumer.
	outSeen := make([]bool, len(g.Nodes))
	for _, e := range g.Edges {
		if !inSet[e.From] || inSet[e.To] || outSeen[e.From] {
			continue
		}
		outSeen[e.From] = true
		o := sub.AddNode("out:"+g.Nodes[e.From].Name, OpOutput, g.Nodes[e.From].Width)
		sub.MustConnect(local[e.From], o)
	}
	return sub, remapOf(ids, local)
}
