package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"chop/internal/dfg"
	"chop/internal/sched"
)

// This file keeps the original map-based allocation estimate as the
// referee of the compiled Estimator: refEstimate is its body unchanged,
// and the differential test requires Estimate to agree with it exactly.

// refEstimate computes the allocation for a scheduled partition. fus is the
// functional-unit allocation used to produce the schedule; ii is the
// initiation interval in cycles (pass the schedule latency, or any value
// >= latency, for non-pipelined designs).
func refEstimate(p sched.Problem, res sched.Result, fus map[dfg.Op]int, ii int) Alloc {
	g := p.G
	if ii < 1 {
		ii = 1
	}

	// ---- register bits: peak live bits over the folded schedule ----
	occupancy := make([]int, ii)
	addLife := func(from, to, width int) {
		if to < from {
			to = from
		}
		if to-from+1 >= ii {
			// Alive a full interval (or more): permanently resident.
			for s := 0; s < ii; s++ {
				occupancy[s] += width * ((to - from) / ii)
			}
			// remainder handled below by the partial span
		}
		span := (to - from) % ii
		for k := 0; k <= span; k++ {
			occupancy[(from+k)%ii] += width
		}
	}
	dur := func(id int) int {
		n := g.Nodes[id]
		if !n.Op.NeedsFU() {
			return 0
		}
		c := p.Cycles(n)
		if c < 1 {
			c = 1
		}
		return c
	}
	for id, n := range g.Nodes {
		if n.Op == dfg.OpOutput {
			continue
		}
		// Birth: when the value becomes available. Inputs are available at
		// cycle 0 (the paper assumes all partition inputs arrive before
		// execution starts); computed values at start+duration.
		birth := 0
		if n.Op.NeedsFU() {
			birth = res.Start[id] + dur(id)
		}
		// Death: the start cycle of the last consumer (the consumer latches
		// the operand when it fires). Values with no consumer (partition
		// outputs feeding OpOutput markers, handled by transfer buffers)
		// are held for one cycle.
		death := birth
		for _, su := range g.Succs(id) {
			s := res.Start[su]
			if g.Nodes[su].Op == dfg.OpOutput {
				s = birth // transfer buffering is accounted elsewhere
			}
			if s > death {
				death = s
			}
		}
		addLife(birth, death, n.Width)
	}
	regBits := 0
	for _, o := range occupancy {
		if o > regBits {
			regBits = o
		}
	}

	// ---- multiplexers and nets ----
	// FU input-port steering: the distinct producer values arriving at each
	// operand position of an op type spread across its allocated instances;
	// each instance's port selects among ~distinct/n sources, so the type
	// needs (distinct - n) two-way muxes per bit at that position. This
	// distinct-source model tracks actual left-edge/first-fit bindings far
	// better than a naive sharers-per-FU count (package rtl's accuracy test
	// compares the two directly).
	counts := g.OpCounts()
	mux := 0
	nets := 0
	width := datapathWidth(g)
	totalFUs := 0
	for op, cnt := range counts {
		n := fus[op]
		if n <= 0 {
			n = cnt // unconstrained: one FU per op, no sharing
		}
		if n > cnt {
			n = cnt
		}
		totalFUs += n
		ports := inputPorts(op)
		for pos := 0; pos < ports; pos++ {
			distinct := make(map[int]bool)
			for _, nd := range g.Nodes {
				if nd.Op != op {
					continue
				}
				preds := g.Preds(nd.ID)
				if pos < len(preds) {
					distinct[preds[pos]] = true
				}
			}
			if d := len(distinct); d > n {
				mux += (d - n) * width
			}
		}
		nets += n * (ports + 1) // each FU: input nets + one output net
	}
	// Register-file steering: shared registers need an input mux per extra
	// writer. The extra-writer total is bounded both by the value surplus
	// (values - regs) and by the writer diversity a register can see (every
	// FU plus the external input path).
	values := 0
	for _, n := range g.Nodes {
		if n.Op.NeedsFU() || n.Op == dfg.OpInput {
			values++
		}
	}
	regs := 0
	if width > 0 {
		regs = (regBits + width - 1) / width
	}
	if regs > 0 && values > regs {
		extra := values - regs
		if cap := regs * totalFUs; extra > cap {
			extra = cap
		}
		mux += extra * width
	}
	nets += len(g.Edges) + regs
	return Alloc{RegisterBits: regBits, Mux1Bit: mux, Nets: nets}
}

// TestEstimateMatchesReference differential-tests the compiled estimate,
// through the adapter and through one reused Estimator, against the
// referee on 3000 random scheduled graphs: list and modulo schedules,
// multi-cycle durations, and allocations that are tight, absent, zero or
// larger than the op count.
func TestEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		g := dfg.RandomDAG(rng.Int63(), 1+rng.Intn(4), 1+rng.Intn(24), 8+8*rng.Intn(2))
		if rng.Intn(3) == 0 {
			a := rng.Intn(len(g.Nodes))
			if g.Nodes[a].Op.NeedsFU() {
				m := g.AddMemNode(fmt.Sprintf("m%d", i), dfg.OpMemRd, 16, "M")
				g.MustConnect(a, m)
			}
		}
		opCyc := map[dfg.Op]int{}
		for _, op := range g.FUOps() {
			opCyc[op] = 1 + rng.Intn(3)
		}
		fus := map[dfg.Op]int{}
		for op, cnt := range g.OpCounts() {
			if rng.Intn(5) > 0 {
				fus[op] = 1 + rng.Intn(cnt+1)
			}
		}
		p := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return opCyc[n.Op] }, Limit: fus}
		res, err := sched.ListSchedule(p)
		if err != nil {
			t.Fatal(err)
		}
		iis := []int{res.Latency, 1 + rng.Intn(res.Latency+1)}
		if pr, ok, _ := sched.PipelinedSchedule(p, iis[1]); ok {
			res = pr
		}
		e := Compile(g)
		ops := g.FUOps()
		for _, ii := range append(iis, 0) {
			alloc := map[dfg.Op]int{}
			for op, n := range fus {
				alloc[op] = n
			}
			if rng.Intn(4) == 0 {
				alloc[ops[rng.Intn(len(ops))]] = 0
			}
			want := refEstimate(p, res, alloc, ii)
			if got := Estimate(p, res, alloc, ii); got != want {
				t.Fatalf("graph %s ii %d fus %v: Estimate = %+v, reference %+v", g.Name, ii, alloc, got, want)
			}
			v := make([]int, len(ops))
			for op, o := range ops {
				v[op] = alloc[o]
			}
			if got := e.Estimate(res.Start, p.Durations(), v, ii); got != want {
				t.Fatalf("graph %s ii %d fus %v: reused Estimator = %+v, reference %+v", g.Name, ii, alloc, got, want)
			}
		}
	}
}
