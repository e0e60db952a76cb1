package sched

import (
	"fmt"
	"slices"

	"chop/internal/dfg"
)

// The compiled scheduler splits a scheduling problem along what its parts
// depend on, so a predictor sweeping thousands of design points re-derives
// nothing:
//
//   - Graph: the partition graph alone (dense op indices, CSR adjacency,
//     topological order), compiled once per graph;
//   - Timing: the graph under one assignment of node durations (one module
//     set): priorities, critical path, serial latency, per-op busy cycles;
//   - Scratch: the per-design working memory of the list and modulo
//     schedulers, reused across runs so a run allocates nothing.
//
// Functional-unit allocations are dense vectors indexed like Graph.Ops.
// ListSchedule and PipelinedSchedule compile and run these on demand.

// Graph is a data-flow graph compiled for scheduling. It is read-only
// after Compile and may be shared by any number of Timings and Scratches.
type Graph struct {
	G *dfg.Graph
	// Ops lists the graph's FU-consuming op types in sorted order; OpOf
	// maps a node to its index in Ops, or -1 for I/O and memory nodes.
	Ops  []dfg.Op
	OpOf []int
	// Count is the number of nodes of each op.
	Count []int
	// Topo is the topological order of dfg.Graph.TopoOrder, which fixes
	// the modulo scheduler's placement order.
	Topo []int
	// node i's predecessors are pred[predOff[i]:predOff[i+1]], in operand
	// order; successors likewise.
	predOff, pred []int
	succOff, succ []int
}

// Compile compiles g for scheduling. It fails when g is cyclic.
func Compile(g *dfg.Graph) (*Graph, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(g.Nodes)
	c := &Graph{
		G:       g,
		Ops:     g.FUOps(),
		OpOf:    make([]int, n),
		Topo:    topo,
		predOff: make([]int, n+1),
		succOff: make([]int, n+1),
	}
	c.Count = make([]int, len(c.Ops))
	for id := range g.Nodes {
		c.OpOf[id] = -1
		if op, ok := slices.BinarySearch(c.Ops, g.Nodes[id].Op); ok {
			c.OpOf[id] = op
			c.Count[op]++
		}
		c.pred = append(c.pred, g.Preds(id)...)
		c.predOff[id+1] = len(c.pred)
		c.succ = append(c.succ, g.Succs(id)...)
		c.succOff[id+1] = len(c.succ)
	}
	return c, nil
}

// Len returns the node count.
func (c *Graph) Len() int { return len(c.OpOf) }

func (c *Graph) preds(id int) []int { return c.pred[c.predOff[id]:c.predOff[id+1]] }

func (c *Graph) succs(id int) []int { return c.succ[c.succOff[id]:c.succOff[id+1]] }

// Timing is a compiled graph under one assignment of node durations:
// everything about its schedules that does not depend on the FU
// allocation. It is read-only between calls to Retime.
type Timing struct {
	*Graph
	// Dur is each node's duration in cycles: 0 for nodes that need no FU,
	// at least 1 for the others.
	Dur []int
	// Prio is each node's list-scheduling priority: the longest path in
	// cycles from the node to any sink, the node included.
	Prio []int
	// rank orders nodes most-urgent-first (Prio descending, then ID);
	// byRank inverts it. The list scheduler's ready list holds ranks.
	rank, byRank []int
	// Critical is the unconstrained critical path in cycles; Serial the
	// sum of all FU durations (at least 1); MaxDur the longest duration
	// (at least 1).
	Critical, Serial, MaxDur int
	// Busy is each op's total busy cycles per sample.
	Busy []int
}

// Time derives the allocation-independent timing of c under the given
// per-node durations, which it normalizes in place (0 for nodes that need
// no FU, at least 1 for the others) and keeps.
func (c *Graph) Time(dur []int) *Timing {
	n := c.Len()
	buf := make([]int, 3*n+len(c.Ops))
	t := &Timing{
		Graph:  c,
		Prio:   buf[:n:n],
		rank:   buf[n : 2*n : 2*n],
		byRank: buf[2*n : 3*n : 3*n],
		Busy:   buf[3*n:],
	}
	t.Retime(dur)
	return t
}

// Retime recomputes t in place for new per-node durations, which it
// normalizes and keeps like Time.
func (t *Timing) Retime(dur []int) {
	t.Dur = dur
	t.Critical, t.Serial, t.MaxDur = 0, 0, 1
	clear(t.Busy)
	for id, op := range t.OpOf {
		switch {
		case op < 0:
			dur[id] = 0
		case dur[id] < 1:
			dur[id] = 1
		}
		if op >= 0 {
			t.Busy[op] += dur[id]
			t.Serial += dur[id]
		}
		t.MaxDur = max(t.MaxDur, dur[id])
	}
	t.Serial = max(t.Serial, 1)
	for i := len(t.Topo) - 1; i >= 0; i-- {
		id := t.Topo[i]
		p := 0
		for _, su := range t.succs(id) {
			p = max(p, t.Prio[su])
		}
		t.Prio[id] = p + dur[id]
		t.Critical = max(t.Critical, t.Prio[id])
	}
	for id := range t.byRank {
		t.byRank[id] = id
	}
	slices.SortFunc(t.byRank, func(a, b int) int {
		if t.Prio[a] != t.Prio[b] {
			return t.Prio[b] - t.Prio[a]
		}
		return a - b
	})
	for r, id := range t.byRank {
		t.rank[id] = r
	}
}

// MinFUs writes into out (grown as needed) and returns the theoretical
// minimum allocation that could sustain the initiation interval ii: per
// op, ceil(busy cycles / ii).
func (t *Timing) MinFUs(ii int, out []int) []int {
	out = slices.Grow(out[:0], len(t.Busy))[:len(t.Busy)]
	for op, b := range t.Busy {
		out[op] = (b + ii - 1) / ii
	}
	return out
}

// Scratch is the working memory of the list and modulo schedulers for
// one compiled graph. A run's schedule stays in Start (and, for modulo
// runs, Instance) until the next run. A Scratch is not safe for
// concurrent use.
type Scratch struct {
	// Start is each node's first execution cycle.
	Start []int
	// Instance is each node's FU instance within its op type after a
	// modulo run; -1 for nodes that need no FU.
	Instance []int

	unsched, earliest []int
	ready, still      []int
	// inflight[op] counts the busy units of op; their finish cycles are
	// finish[base[op] : base[op]+inflight[op]].
	inflight, finish, base []int
	// wheels[op] counts the instance wheels of op in use. Wheel w of op
	// is run[(base[op]+w)*ii : (base[op]+w+1)*ii]: per cycle slot, 0 when
	// busy, else the number of consecutive free slots from it
	// (circularly); maxRun[base[op]+w] is their maximum.
	wheels      []int
	run, maxRun []int
	fit         []int
}

// NewScratch returns scheduler scratch sized for c.
func NewScratch(c *Graph) *Scratch {
	n := c.Len()
	s := &Scratch{
		Start:    make([]int, n),
		Instance: make([]int, n),
		unsched:  make([]int, n),
		earliest: make([]int, n),
		ready:    make([]int, 0, n),
		still:    make([]int, 0, n),
		inflight: make([]int, len(c.Ops)),
		base:     make([]int, len(c.Ops)),
		wheels:   make([]int, len(c.Ops)),
	}
	fus := 0
	for op, cnt := range c.Count {
		s.base[op] = fus
		fus += cnt
	}
	s.finish = make([]int, fus)
	s.maxRun = make([]int, fus)
	return s
}

// Reserve sizes the modulo scheduler's wheels for initiation intervals up
// to ii exactly, so a sweep over increasing intervals that knows its last
// interval allocates them once instead of growing them by doubling.
func (s *Scratch) Reserve(ii int) {
	if need := len(s.finish) * ii; len(s.run) < need {
		s.run = make([]int, need)
	}
}

// List runs critical-path list scheduling under the allocation limit (one
// positive entry per op; an op can never have more than Count[op] units
// busy, so Count or more means unconstrained). It leaves the schedule in
// s.Start and returns its latency. Nodes become ready in passes: within a
// cycle, each pass scans the ready list most-urgent-first, and a node
// readied by a zero-duration predecessor waits for the next pass. Passes
// and cycles in which nothing can start are skipped.
func (t *Timing) List(limit []int, s *Scratch) (int, error) {
	n := t.Len()
	for id := 0; id < n; id++ {
		s.Start[id] = -1
		s.unsched[id] = t.predOff[id+1] - t.predOff[id]
		s.earliest[id] = 0
	}
	clear(s.inflight)
	ready := s.ready[:0]
	for id := 0; id < n; id++ {
		if s.unsched[id] == 0 {
			ready = append(ready, t.rank[id])
		}
	}
	still := s.still[:0]
	bound := n*t.MaxDur + n + 8
	scheduled, latency := 0, 0
	for cycle := 0; scheduled < n; {
		// Retire the units that finished by this cycle.
		for op, k := range s.inflight {
			fin := s.finish[s.base[op] : s.base[op]+k]
			kept := fin[:0]
			for _, f := range fin {
				if f > cycle {
					kept = append(kept, f)
				}
			}
			s.inflight[op] = len(kept)
		}
		// A pass can only start a node readied in the previous pass whose
		// operands are already available: every node it deferred stays
		// deferred, as units only fill up within a cycle. So another pass
		// runs only when such a node exists.
		for again := true; again; {
			again = false
			slices.Sort(ready)
			still = still[:0]
			for _, r := range ready {
				id := t.byRank[r]
				if s.earliest[id] > cycle {
					still = append(still, r)
					continue
				}
				dur := t.Dur[id]
				if dur > 0 {
					op := t.OpOf[id]
					k := s.inflight[op]
					if k >= limit[op] {
						still = append(still, r)
						continue
					}
					s.finish[s.base[op]+k] = cycle + dur
					s.inflight[op] = k + 1
				}
				s.Start[id] = cycle
				latency = max(latency, cycle+dur)
				scheduled++
				for _, su := range t.succs(id) {
					s.earliest[su] = max(s.earliest[su], cycle+dur)
					if s.unsched[su]--; s.unsched[su] == 0 {
						still = append(still, t.rank[su])
						again = again || s.earliest[su] <= cycle
					}
				}
			}
			ready, still = still, ready
		}
		if scheduled == n {
			break
		}
		// Jump to the next cycle at which a unit frees up or a waiting
		// node's operands arrive; nothing can start before it.
		next := -1
		for _, r := range ready {
			if e := s.earliest[t.byRank[r]]; e > cycle && (next < 0 || e < next) {
				next = e
			}
		}
		for op, k := range s.inflight {
			for _, f := range s.finish[s.base[op] : s.base[op]+k] {
				if next < 0 || f < next {
					next = f
				}
			}
		}
		if next < 0 || max(cycle, next-1) > bound {
			return 0, fmt.Errorf("sched: list schedule did not converge (graph %q)", t.G.Name)
		}
		cycle = next
	}
	s.ready, s.still = ready, still
	return latency, nil
}

// Modulo runs modulo scheduling at initiation interval ii >= 1 under the
// allocation limit (one positive entry per op). Nodes are placed in
// topological order, each at the earliest start where a concrete FU
// instance has the node's whole circular interval free; tracking
// instances (not just per-slot counts) matters because circular-arc
// packing can need more units than the peak slot count. It leaves the
// schedule in s.Start and s.Instance and returns its latency, or ok=false
// when the allocation cannot sustain the interval.
func (t *Timing) Modulo(limit []int, ii int, s *Scratch) (latency int, ok bool) {
	for op, b := range t.Busy {
		if (b+ii-1)/ii > limit[op] {
			return 0, false // resource lower bound
		}
	}
	n := t.Len()
	if need := len(s.finish) * ii; len(s.run) < need {
		s.run = make([]int, max(need, 2*len(s.run)))
	}
	clear(s.wheels)
	for id := 0; id < n; id++ {
		s.Instance[id] = -1
	}
	horizon := ii * (n + 2)
	for _, id := range t.Topo {
		dur := t.Dur[id]
		at := 0
		for _, pr := range t.preds(id) {
			at = max(at, s.Start[pr]+t.Dur[pr])
		}
		s.Start[id] = at
		if dur == 0 {
			continue
		}
		if dur > ii {
			// An operation longer than the interval permanently occupies
			// more than one instance-wheel; with one new sample per ii
			// cycles such an op can never be rebound, so reject.
			return 0, false
		}
		op := t.OpOf[id]
		// Try starts from at in order, at each the lowest instance with
		// dur free cycles from there, then a new instance while the limit
		// allows. The wheels are periodic in ii, so a start in [at, at+ii)
		// fits if any does, and a wheel with no run of dur free cycles
		// never fits.
		fit := s.fit[:0]
		for v := 0; v < s.wheels[op]; v++ {
			if s.maxRun[s.base[op]+v] >= dur {
				fit = append(fit, v)
			}
		}
		s.fit = fit
		st, w := -1, -1
		for c, slot := at, at%ii; c <= horizon && c < at+ii && (len(fit) > 0 || s.wheels[op] < limit[op]); c++ {
			for _, v := range fit {
				if s.run[(s.base[op]+v)*ii+slot] >= dur {
					st, w = c, v
					break
				}
			}
			if st < 0 && s.wheels[op] < limit[op] {
				st, w = c, s.wheels[op]
				s.wheels[op]++
				wh := s.run[(s.base[op]+w)*ii : (s.base[op]+w+1)*ii]
				for k := range wh {
					wh[k] = ii
				}
			}
			if st >= 0 {
				break
			}
			if slot++; slot == ii {
				slot = 0
			}
		}
		if st < 0 {
			return 0, false
		}
		s.occupy(op, w, st, dur, ii)
		s.Start[id], s.Instance[id] = st, w
		latency = max(latency, st+dur)
	}
	return latency, true
}

// occupy marks dur cycles of wheel w of op busy from st (mod ii) and
// updates the wheel's free runs: only the free slots just before st see
// their runs shortened.
func (s *Scratch) occupy(op, w, st, dur, ii int) {
	run := s.run[(s.base[op]+w)*ii : (s.base[op]+w+1)*ii]
	first := st % ii
	for k, slot := 0, first; k < dur; k++ {
		run[slot] = 0
		if slot++; slot == ii {
			slot = 0
		}
	}
	for k, slot := 1, first; ; k++ {
		if slot--; slot < 0 {
			slot = ii - 1
		}
		if run[slot] == 0 {
			break
		}
		run[slot] = k
	}
	m := 0
	for _, r := range run {
		m = max(m, r)
	}
	s.maxRun[s.base[op]+w] = m
}
