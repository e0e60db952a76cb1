// Package sched implements the operation scheduling used by the BAD
// predictor: resource-constrained list scheduling for non-pipelined designs
// and modulo (initiation-interval constrained) scheduling for pipelined
// designs, in the style of Sehwa (paper reference [8]). Both support
// multi-cycle operations; the single-cycle architecture style is the special
// case where every operation takes exactly one cycle.
package sched

import (
	"fmt"

	"chop/internal/dfg"
)

// Problem is one scheduling instance over a partition's subgraph.
type Problem struct {
	G *dfg.Graph
	// Cycles returns the execution time of a node in datapath cycles.
	// It must return >= 1 for FU-consuming ops and 0 for I/O markers.
	Cycles func(n dfg.Node) int
	// Limit is the functional-unit allocation per operation type. Ops
	// absent from the map are unconstrained.
	Limit map[dfg.Op]int
}

func (p Problem) cyclesOf(id int) int {
	n := p.G.Nodes[id]
	if !n.Op.NeedsFU() {
		return 0
	}
	c := p.Cycles(n)
	if c < 1 {
		c = 1
	}
	return c
}

// Durations returns each node's duration in cycles: 0 for nodes that
// need no FU, Cycles clamped to at least 1 for the others.
func (p Problem) Durations() []int {
	dur := make([]int, len(p.G.Nodes))
	for id := range dur {
		dur[id] = p.cyclesOf(id)
	}
	return dur
}

// Result is a computed schedule.
type Result struct {
	// Start is the first execution cycle of each node (I/O markers get the
	// cycle their value is produced/consumed).
	Start []int
	// Latency is the total schedule length in cycles: the number of cycles
	// from the first operation's start to the last operation's completion.
	Latency int
	// Instance, when non-nil, records the functional-unit instance index
	// (within the node's op type) each node was placed on. Modulo
	// scheduling fills it because per-slot counting alone does not
	// guarantee the circular intervals pack onto the allocated instances;
	// binding (package rtl) reuses the recorded placement.
	Instance []int
}

// ASAP returns the as-soon-as-possible start cycle of every node and the
// resulting unconstrained latency.
func ASAP(p Problem) (starts []int, latency int, err error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	starts = make([]int, len(p.G.Nodes))
	for _, id := range order {
		s := 0
		for _, pr := range p.G.Preds(id) {
			if f := starts[pr] + p.cyclesOf(pr); f > s {
				s = f
			}
		}
		starts[id] = s
		if f := s + p.cyclesOf(id); f > latency {
			latency = f
		}
	}
	return starts, latency, nil
}

// ALAP returns the as-late-as-possible start cycles for the given deadline
// (in cycles). Nodes that cannot meet the deadline get negative starts.
func ALAP(p Problem, deadline int) ([]int, error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	starts := make([]int, len(p.G.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		s := deadline - p.cyclesOf(id)
		for _, su := range p.G.Succs(id) {
			if lim := starts[su] - p.cyclesOf(id); lim < s {
				s = lim
			}
		}
		starts[id] = s
	}
	return starts, nil
}

// CriticalCycles returns the unconstrained critical-path length in cycles.
func CriticalCycles(p Problem) (int, error) {
	_, lat, err := ASAP(p)
	return lat, err
}

// ListSchedule computes a resource-constrained non-pipelined schedule using
// critical-path list scheduling. It never fails for positive FU limits; the
// schedule just lengthens as resources shrink.
func ListSchedule(p Problem) (Result, error) {
	if err := checkLimits(p); err != nil {
		return Result{}, err
	}
	t, limit, err := p.compile()
	if err != nil {
		return Result{}, err
	}
	s := NewScratch(t.Graph)
	lat, err := t.List(limit, s)
	if err != nil {
		return Result{}, err
	}
	return Result{Start: s.Start, Latency: lat}, nil
}

// compile compiles the problem: its graph, its per-node durations and its
// FU limits as a dense vector (ops absent from Limit get one unit per
// node, which never binds).
func (p Problem) compile() (*Timing, []int, error) {
	c, err := Compile(p.G)
	if err != nil {
		return nil, nil, err
	}
	dur := p.Durations()
	limit := make([]int, len(c.Ops))
	for op, o := range c.Ops {
		n, has := p.Limit[o]
		if !has {
			n = c.Len()
		}
		limit[op] = n
	}
	return c.Time(dur), limit, nil
}

func checkLimits(p Problem) error {
	for op, n := range p.Limit {
		if n <= 0 {
			return fmt.Errorf("sched: non-positive FU limit %d for op %q", n, op)
		}
	}
	return nil
}

// MinFUs returns the theoretical minimum functional-unit allocation that
// could sustain the given initiation interval: for each op type,
// ceil(total busy cycles / II).
func MinFUs(p Problem, ii int) map[dfg.Op]int {
	need := make(map[dfg.Op]int)
	for id, n := range p.G.Nodes {
		if n.Op.NeedsFU() {
			need[n.Op] += p.cyclesOf(id)
		}
	}
	for op, busy := range need {
		need[op] = (busy + ii - 1) / ii
	}
	return need
}

// PipelinedSchedule computes a modulo schedule with the given initiation
// interval: a new sample enters every ii cycles and resource usage is
// counted modulo ii. It returns ok=false when the allocation cannot sustain
// the interval (resource or precedence pressure).
func PipelinedSchedule(p Problem, ii int) (Result, bool, error) {
	if ii < 1 {
		return Result{}, false, fmt.Errorf("sched: initiation interval %d < 1", ii)
	}
	if err := checkLimits(p); err != nil {
		return Result{}, false, err
	}
	t, limit, err := p.compile()
	if err != nil {
		return Result{}, false, err
	}
	s := NewScratch(t.Graph)
	lat, ok := t.Modulo(limit, ii, s)
	if !ok {
		return Result{}, false, nil
	}
	return Result{Start: s.Start, Latency: lat, Instance: s.Instance}, true, nil
}

// Stages returns the number of pipeline stages of a modulo schedule:
// ceil(latency / ii). For non-pipelined schedules pass ii = latency to get 1.
func Stages(latency, ii int) int {
	if ii <= 0 {
		return 0
	}
	return (latency + ii - 1) / ii
}
