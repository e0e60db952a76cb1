// Package alloc implements the register and multiplexer allocation
// predictions of BAD (paper section 2.4: "detailed predictions on register
// and multiplexer allocation"). Given a schedule and a functional-unit
// allocation, it estimates:
//
//   - register bits: the maximum number of value bits simultaneously live
//     (the left-edge algorithm achieves this bound exactly);
//   - 1-bit 2:1 multiplexers: steering logic in front of shared FU input
//     ports and shared registers;
//   - interconnect count: the number of point-to-point nets, which feeds
//     the wiring-area model.
//
// For pipelined designs, lifetimes are folded modulo the initiation
// interval: a value that lives longer than one interval coexists with its
// successors from younger samples, so it occupies multiple register slots.
package alloc

import (
	"slices"

	"chop/internal/dfg"
	"chop/internal/sched"
)

// Alloc is the predicted storage/steering requirement of one design point.
type Alloc struct {
	// RegisterBits is the peak number of simultaneously live value bits.
	RegisterBits int
	// Mux1Bit is the number of 1-bit 2:1 multiplexer cells.
	Mux1Bit int
	// Nets is the interconnect count for the wiring model.
	Nets int
}

// Estimator is the graph-constant half of the allocation estimate,
// compiled once per partition graph: the distinct producers at each
// operand position of each op, the datapath width, the value and edge
// counts, and each value's consumers. Estimate folds one design's
// schedule and FU allocation into it. FU allocations are dense vectors
// indexed like dfg.Graph.FUOps. An Estimator keeps its occupancy scratch,
// so it is not safe for concurrent use.
type Estimator struct {
	count, ports []int // per op
	// distinct[portOff[op]+pos] is the number of distinct producers
	// feeding operand pos of op's nodes.
	distinct, portOff    []int
	width, values, edges int
	// vals are the value-producing nodes (all but outputs); value k is
	// born at its producer's completion when fu[k] (at cycle 0 for inputs
	// and memory accesses) and consumed by the nodes
	// use[useOff[k]:useOff[k+1]] (outputs left out: transfer buffering
	// is accounted elsewhere).
	vals, valWidth []int
	fu             []bool
	useOff, use    []int
	occ            []int
}

// Compile compiles g's allocation facts.
func Compile(g *dfg.Graph) *Estimator {
	ops := g.FUOps()
	e := &Estimator{
		count:   make([]int, len(ops)),
		ports:   make([]int, len(ops)),
		portOff: make([]int, len(ops)+1),
		width:   datapathWidth(g),
		edges:   len(g.Edges),
		useOff:  []int{0},
	}
	for op, o := range ops {
		e.ports[op] = inputPorts(o)
		e.portOff[op+1] = e.portOff[op] + e.ports[op]
	}
	e.distinct = make([]int, e.portOff[len(ops)])
	seen := make(map[[2]int]bool) // (port slot, producer)
	for _, n := range g.Nodes {
		if n.Op.NeedsFU() || n.Op == dfg.OpInput {
			e.values++
		}
		if n.Op.NeedsFU() {
			op, _ := slices.BinarySearch(ops, n.Op)
			e.count[op]++
			for pos, pr := range g.Preds(n.ID) {
				if pos >= e.ports[op] {
					break
				}
				if k := [2]int{e.portOff[op] + pos, pr}; !seen[k] {
					seen[k] = true
					e.distinct[k[0]]++
				}
			}
		}
		if n.Op == dfg.OpOutput {
			continue
		}
		e.vals = append(e.vals, n.ID)
		e.valWidth = append(e.valWidth, n.Width)
		e.fu = append(e.fu, n.Op.NeedsFU())
		for _, su := range g.Succs(n.ID) {
			if g.Nodes[su].Op != dfg.OpOutput {
				e.use = append(e.use, su)
			}
		}
		e.useOff = append(e.useOff, len(e.use))
	}
	return e
}

// Estimate computes the allocation of one design: start and dur are the
// schedule's per-node start cycles and durations (0 for nodes that need
// no FU), fus the FU allocation per op (0 means unconstrained: one FU per
// node), ii the initiation interval in cycles (pass the schedule latency,
// or any value >= latency, for non-pipelined designs).
func (e *Estimator) Estimate(start, dur, fus []int, ii int) Alloc {
	ii = max(ii, 1)

	// ---- register bits: peak live bits over the folded schedule ----
	// A value alive for life cycles occupies every slot life/ii times
	// (base) plus the circular span of life%ii+1 slots from its birth,
	// added through the difference array occ.
	e.occ = slices.Grow(e.occ[:0], ii+1)[:ii+1]
	occ := e.occ
	clear(occ)
	base := 0
	for k, id := range e.vals {
		birth := 0
		if e.fu[k] {
			birth = start[id] + dur[id]
		}
		death := birth
		for _, su := range e.use[e.useOff[k]:e.useOff[k+1]] {
			death = max(death, start[su])
		}
		w, life := e.valWidth[k], death-birth
		base += w * (life / ii)
		from, to := birth%ii, birth%ii+life%ii
		occ[from] += w
		if to < ii {
			occ[to+1] -= w
		} else {
			occ[ii] -= w
			occ[0] += w
			occ[to-ii+1] -= w
		}
	}
	regBits, live := 0, 0
	for _, d := range occ[:ii] {
		live += d
		regBits = max(regBits, live)
	}
	regBits += base

	// ---- multiplexers and nets ----
	// FU input-port steering: the distinct producer values arriving at each
	// operand position of an op type spread across its allocated instances;
	// each instance's port selects among ~distinct/n sources, so the type
	// needs (distinct - n) two-way muxes per bit at that position. This
	// distinct-source model tracks actual left-edge/first-fit bindings far
	// better than a naive sharers-per-FU count (package rtl's accuracy test
	// compares the two directly).
	mux, nets, totalFUs := 0, 0, 0
	for op, cnt := range e.count {
		n := fus[op]
		if n <= 0 || n > cnt {
			n = cnt // unconstrained: one FU per op, no sharing
		}
		totalFUs += n
		for _, d := range e.distinct[e.portOff[op]:e.portOff[op+1]] {
			if d > n {
				mux += (d - n) * e.width
			}
		}
		nets += n * (e.ports[op] + 1) // each FU: input nets + one output net
	}
	// Register-file steering: shared registers need an input mux per extra
	// writer. The extra-writer total is bounded both by the value surplus
	// (values - regs) and by the writer diversity a register can see (every
	// FU plus the external input path).
	regs := 0
	if e.width > 0 {
		regs = (regBits + e.width - 1) / e.width
	}
	if regs > 0 && e.values > regs {
		extra := min(e.values-regs, regs*totalFUs)
		mux += extra * e.width
	}
	nets += e.edges + regs
	return Alloc{RegisterBits: regBits, Mux1Bit: mux, Nets: nets}
}

// Estimate computes the allocation for a scheduled partition. fus is the
// functional-unit allocation used to produce the schedule; ii is the
// initiation interval in cycles (pass the schedule latency, or any value
// >= latency, for non-pipelined designs). It compiles p.G and runs
// Estimator.Estimate once.
func Estimate(p sched.Problem, res sched.Result, fus map[dfg.Op]int, ii int) Alloc {
	e := Compile(p.G)
	ops := p.G.FUOps()
	v := make([]int, len(ops))
	for op, o := range ops {
		v[op] = fus[o]
	}
	return e.Estimate(res.Start, p.Durations(), v, ii)
}

// inputPorts returns the operand count of an operation type.
func inputPorts(op dfg.Op) int {
	switch op {
	case dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpDiv, dfg.OpCmp:
		return 2
	default:
		return 1
	}
}

// datapathWidth returns the dominant value width of the graph (the maximum,
// which for the paper's designs is the uniform 16-bit width).
func datapathWidth(g *dfg.Graph) int {
	w := 0
	for _, n := range g.Nodes {
		if n.Width > w {
			w = n.Width
		}
	}
	return w
}
