package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"chop/internal/dfg"
)

// This file keeps the original map-based, cycle-stepping list scheduler
// and the original modulo scheduler as referees of the compiled ones:
// their bodies are unchanged, and the differential test and fuzz target
// require ListSchedule, PipelinedSchedule and the compiled Timing to
// agree with them exactly on starts, latency, FU instances and errors.

// refPriorities returns, per node, the length in cycles of the longest path
// from that node to any sink (inclusive of the node itself). Higher is more
// urgent; this is the standard list-scheduling priority.
func refPriorities(p Problem) ([]int, error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	prio := make([]int, len(p.G.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		max := 0
		for _, su := range p.G.Succs(id) {
			if prio[su] > max {
				max = prio[su]
			}
		}
		prio[id] = max + p.cyclesOf(id)
	}
	return prio, nil
}

// refListSchedule computes a resource-constrained non-pipelined schedule using
// critical-path list scheduling. It never fails for positive FU limits; the
// schedule just lengthens as resources shrink.
func refListSchedule(p Problem) (Result, error) {
	if err := checkLimits(p); err != nil {
		return Result{}, err
	}
	prio, err := refPriorities(p)
	if err != nil {
		return Result{}, err
	}
	order, _ := p.G.TopoOrder()

	start := make([]int, len(p.G.Nodes))
	for i := range start {
		start[i] = -1
	}
	unschedPreds := make([]int, len(p.G.Nodes))
	for id := range p.G.Nodes {
		unschedPreds[id] = len(p.G.Preds(id))
	}
	// busy[op] holds the finish cycles of in-flight ops of that type, one
	// entry per occupied FU instance.
	type event struct{ finish int }
	busy := make(map[dfg.Op][]event)

	ready := make([]int, 0, len(p.G.Nodes))
	for _, id := range order {
		if unschedPreds[id] == 0 {
			ready = append(ready, id)
		}
	}
	earliest := make([]int, len(p.G.Nodes))
	scheduled := 0
	latency := 0
	for cycle := 0; scheduled < len(p.G.Nodes); cycle++ {
		// Retire finished ops.
		for op, evs := range busy {
			kept := evs[:0]
			for _, e := range evs {
				if e.finish > cycle {
					kept = append(kept, e)
				}
			}
			busy[op] = kept
		}
		// Repeatedly sweep the ready list within this cycle: scheduling a
		// zero-duration node (an I/O marker) can make its successors ready
		// in the very same cycle.
		for progress := true; progress; {
			progress = false
			// Most-urgent-first among ready ops whose earliest time has come.
			sort.Slice(ready, func(i, j int) bool {
				if prio[ready[i]] != prio[ready[j]] {
					return prio[ready[i]] > prio[ready[j]]
				}
				return ready[i] < ready[j]
			})
			var still []int
			for _, id := range ready {
				if earliest[id] > cycle {
					still = append(still, id)
					continue
				}
				op := p.G.Nodes[id].Op
				dur := p.cyclesOf(id)
				if dur > 0 {
					limit, has := p.Limit[op]
					if has && len(busy[op]) >= limit {
						still = append(still, id)
						continue
					}
					busy[op] = append(busy[op], event{finish: cycle + dur})
				}
				start[id] = cycle
				if f := cycle + dur; f > latency {
					latency = f
				}
				scheduled++
				progress = true
				for _, su := range p.G.Succs(id) {
					if e := cycle + dur; e > earliest[su] {
						earliest[su] = e
					}
					unschedPreds[su]--
					if unschedPreds[su] == 0 {
						still = append(still, su)
					}
				}
			}
			ready = still
		}
		if cycle > len(p.G.Nodes)*refMaxDur(p)+len(p.G.Nodes)+8 && scheduled < len(p.G.Nodes) {
			return Result{}, fmt.Errorf("sched: list schedule did not converge (graph %q)", p.G.Name)
		}
	}
	return Result{Start: start, Latency: latency}, nil
}

func refMaxDur(p Problem) int {
	m := 1
	for id := range p.G.Nodes {
		if d := p.cyclesOf(id); d > m {
			m = d
		}
	}
	return m
}

// refMinFUs returns the theoretical minimum functional-unit allocation that
// could sustain the given initiation interval: for each op type,
// ceil(total busy cycles / II).
func refMinFUs(p Problem, ii int) map[dfg.Op]int {
	busy := make(map[dfg.Op]int)
	for id, n := range p.G.Nodes {
		if n.Op.NeedsFU() {
			busy[n.Op] += p.cyclesOf(id)
		}
	}
	out := make(map[dfg.Op]int, len(busy))
	for op, b := range busy {
		out[op] = (b + ii - 1) / ii
	}
	return out
}

// refPipelinedSchedule computes a modulo schedule with the given initiation
// interval: a new sample enters every ii cycles and resource usage is
// counted modulo ii. It returns ok=false when the allocation cannot sustain
// the interval (resource or precedence pressure).
func refPipelinedSchedule(p Problem, ii int) (Result, bool, error) {
	if ii < 1 {
		return Result{}, false, fmt.Errorf("sched: initiation interval %d < 1", ii)
	}
	if err := checkLimits(p); err != nil {
		return Result{}, false, err
	}
	// Quick resource lower-bound rejection.
	need := refMinFUs(p, ii)
	for op, n := range need {
		if limit, has := p.Limit[op]; has && n > limit {
			return Result{}, false, nil
		}
	}
	order, err := p.G.TopoOrder()
	if err != nil {
		return Result{}, false, err
	}
	// Schedule in topological order, each op at the earliest start where a
	// concrete FU instance has the op's whole circular interval free.
	// Tracking instances (not just per-slot counts) matters: circular-arc
	// packing can need more machines than the peak slot count, so per-slot
	// feasibility alone would admit schedules no binding can realize.
	wheels := make(map[dfg.Op][][]bool) // op -> instance -> slot busy
	start := make([]int, len(p.G.Nodes))
	instance := make([]int, len(p.G.Nodes))
	for i := range instance {
		instance[i] = -1
	}
	latency := 0
	horizon := ii * (len(p.G.Nodes) + 2)
	for _, id := range order {
		n := p.G.Nodes[id]
		dur := p.cyclesOf(id)
		s := 0
		for _, pr := range p.G.Preds(id) {
			if f := start[pr] + p.cyclesOf(pr); f > s {
				s = f
			}
		}
		if dur == 0 {
			start[id] = s
			continue
		}
		if dur > ii {
			// An operation longer than the interval permanently occupies
			// more than one instance-wheel; with one new sample per ii
			// cycles such an op can never be rebound, so reject.
			return Result{}, false, nil
		}
		limit, has := p.Limit[n.Op]
		if !has {
			limit = len(p.G.Nodes)
		}
		ws := wheels[n.Op]
		if ws == nil {
			ws = make([][]bool, 0, limit)
			wheels[n.Op] = ws
		}
		placed := false
		for ; s <= horizon && !placed; s++ {
			for wi := 0; wi < limit; wi++ {
				if wi == len(ws) {
					ws = append(ws, make([]bool, ii))
					wheels[n.Op] = ws
				}
				free := true
				for k := 0; k < dur; k++ {
					if ws[wi][(s+k)%ii] {
						free = false
						break
					}
				}
				if free {
					for k := 0; k < dur; k++ {
						ws[wi][(s+k)%ii] = true
					}
					start[id] = s
					instance[id] = wi
					placed = true
					break
				}
			}
		}
		if !placed {
			return Result{}, false, nil
		}
		if f := start[id] + dur; f > latency {
			latency = f
		}
	}
	return Result{Start: start, Latency: latency, Instance: instance}, true, nil
}

// randomProblem builds a seeded scheduling problem over a dfg.RandomDAG
// graph: multi-cycle durations (per op, sometimes varying per node), an
// occasional zero-duration memory access relaying a value between two
// operations, and FU limits that are random, tight or absent per op.
func randomProblem(rng *rand.Rand) Problem {
	g := dfg.RandomDAG(rng.Int63(), 1+rng.Intn(4), 1+rng.Intn(24), 16)
	for k := rng.Intn(3); k > 0; k-- {
		// Node IDs of a RandomDAG are topological, so a relay from a to a
		// later b keeps the graph acyclic.
		a, b := rng.Intn(len(g.Nodes)), rng.Intn(len(g.Nodes))
		if a > b {
			a, b = b, a
		}
		if a == b || !g.Nodes[a].Op.NeedsFU() || !g.Nodes[b].Op.NeedsFU() {
			continue
		}
		m := g.AddMemNode(fmt.Sprintf("m%d", len(g.Nodes)), dfg.OpMemRd, 16, "M")
		g.MustConnect(a, m)
		g.MustConnect(m, b)
	}
	opCyc := map[dfg.Op]int{}
	for _, op := range g.FUOps() {
		opCyc[op] = 1 + rng.Intn(4)
	}
	perNode := rng.Intn(3) == 0
	cycles := func(n dfg.Node) int {
		if perNode {
			return 1 + n.ID%3
		}
		return opCyc[n.Op]
	}
	limit := map[dfg.Op]int{}
	for op, cnt := range g.OpCounts() {
		switch rng.Intn(4) {
		case 0: // unconstrained
		case 1:
			limit[op] = 1
		default:
			limit[op] = 1 + rng.Intn(cnt+1)
		}
	}
	return Problem{G: g, Cycles: cycles, Limit: limit}
}

// checkAgainstReference runs the compiled schedulers — through the Problem
// adapters and through one reused Timing and Scratch — against the
// referees on one problem, at several initiation intervals and limits.
func checkAgainstReference(t *testing.T, rng *rand.Rand, p Problem) {
	t.Helper()
	want, werr := refListSchedule(p)
	got, gerr := ListSchedule(p)
	if (werr != nil) != (gerr != nil) || !reflect.DeepEqual(want, got) {
		t.Fatalf("graph %s: ListSchedule = %+v, %v; reference %+v, %v", p.G.Name, got, gerr, want, werr)
	}
	crit, err := CriticalCycles(p)
	if err != nil {
		t.Fatal(err)
	}
	prio, _ := refPriorities(p)
	tm, limit, err := p.compile()
	if err != nil {
		t.Fatal(err)
	}
	if tm.Critical != crit || !reflect.DeepEqual(tm.Prio, prio) {
		t.Fatalf("graph %s: critical %d prio %v, reference %d %v", p.G.Name, tm.Critical, tm.Prio, crit, prio)
	}
	s := NewScratch(tm.Graph)
	for k := 0; k < 4; k++ {
		ii := 1 + rng.Intn(tm.Serial+2)
		if k == 3 {
			ii = 60 + rng.Intn(20) // wide wheels
		}
		wantFUs := refMinFUs(p, ii)
		if got := MinFUs(p, ii); !reflect.DeepEqual(got, wantFUs) {
			t.Fatalf("graph %s: MinFUs(%d) = %v, reference %v", p.G.Name, ii, got, wantFUs)
		}
		for op, n := range tm.MinFUs(ii, nil) {
			if wantFUs[tm.Ops[op]] != n {
				t.Fatalf("graph %s: Timing.MinFUs(%d)[%s] = %d, reference %d", p.G.Name, ii, tm.Ops[op], n, wantFUs[tm.Ops[op]])
			}
		}
		want, wok, werr := refPipelinedSchedule(p, ii)
		got, gok, gerr := PipelinedSchedule(p, ii)
		if wok != gok || (werr != nil) != (gerr != nil) || !reflect.DeepEqual(want, got) {
			t.Fatalf("graph %s ii %d: PipelinedSchedule = %+v, %v, %v; reference %+v, %v, %v",
				p.G.Name, ii, got, gok, gerr, want, wok, werr)
		}
		// The same run on the shared scratch, dirty from earlier runs.
		lat, ok := tm.Modulo(limit, ii, s)
		if ok != wok || ok && (lat != want.Latency || !reflect.DeepEqual(s.Start, want.Start) ||
			!reflect.DeepEqual(s.Instance, want.Instance)) {
			t.Fatalf("graph %s ii %d: reused Modulo = %d, %v; reference %+v, %v", p.G.Name, ii, lat, ok, want, wok)
		}
		// A list run at a random allocation on the shared scratch.
		q := p
		q.Limit = map[dfg.Op]int{}
		ll := make([]int, len(tm.Ops))
		for op, o := range tm.Ops {
			ll[op] = 1 + rng.Intn(tm.Count[op]+1)
			q.Limit[o] = ll[op]
		}
		wl, lerr := refListSchedule(q)
		if lerr != nil {
			t.Fatal(lerr)
		}
		lat, err := tm.List(ll, s)
		if err != nil || lat != wl.Latency || !reflect.DeepEqual(s.Start, wl.Start) {
			t.Fatalf("graph %s limit %v: reused List = %d %v %v; reference %+v", p.G.Name, q.Limit, lat, s.Start, err, wl)
		}
	}
}

// TestListScheduleMatchesReference differential-tests the compiled list
// and modulo schedulers against the referees on 3000 random problems.
func TestListScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		checkAgainstReference(t, rng, randomProblem(rng))
	}
}

// TestListScheduleCyclicMatchesReference checks that a cyclic graph fails
// with the referee's error.
func TestListScheduleCyclicMatchesReference(t *testing.T) {
	g := dfg.New("cyc")
	a := g.AddNode("a", dfg.OpAdd, 16)
	b := g.AddNode("b", dfg.OpAdd, 16)
	g.MustConnect(a, b)
	g.MustConnect(b, a)
	p := Problem{G: g, Cycles: unit}
	_, werr := refListSchedule(p)
	_, gerr := ListSchedule(p)
	if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
		t.Fatalf("cyclic graph: ListSchedule error %v, reference %v", gerr, werr)
	}
}

// FuzzListScheduleMatchesReference is the fuzzing form of the
// differential test: each seed expands to one random problem.
func FuzzListScheduleMatchesReference(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 42, 1991, 20261017} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkAgainstReference(t, rng, randomProblem(rng))
	})
}
