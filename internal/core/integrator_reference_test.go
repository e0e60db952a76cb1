package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/mem"
	"chop/internal/stats"
	"chop/internal/xfer"
)

// This file is the integrator's independent referee: paper sections 2.5
// and 2.6 written for obviousness, for partitionings of at most eight
// schedulable tasks. Every trial rebuilds its tables from the Partitioning
// with maps, schedules with its own cycle-stepping urgency list scheduler
// and sizes modules with xfer.PredictModule directly. It shares no code
// with the compiled integrator, its trial scratch, its signature memo or
// urgency.Scheduler.

// refDesign is what the referee predicts for one trial.
type refDesign struct {
	feasible bool
	code     Reason
	chip     int
	areaViol []int
	delay    int
	chipPins []int
	chipArea []stats.Triplet
	modules  []refModule
	// narrow marks a design the narrow-bus retry made feasible.
	narrow bool
}

type refModule struct{ bufferBits, wait, pins int }

// refIntegrate evaluates choice at interval l: the widest buses first and,
// when only chip area fails, the narrow bus (paper footnote 1).
func refIntegrate(p *Partitioning, cfg Config, choice []bad.Design, l int) refDesign {
	d := refIntegrateBus(p, cfg, choice, l, 0)
	if d.feasible || len(d.areaViol) == 0 {
		return d
	}
	narrow := cfg.MaxBusPins
	if narrow <= 0 {
		narrow = defaultBusPins
	}
	if d2 := refIntegrateBus(p, cfg, choice, l, narrow); d2.feasible {
		d2.narrow = true
		return d2
	}
	return d
}

// refTask is one node of the referee's schedule: a partition execution or
// a transfer, with the resources it holds while it runs.
type refTask struct {
	dur  int
	deps []int
	uses map[string]int // resource -> amount held
}

func refIntegrateBus(p *Partitioning, cfg Config, choice []bad.Design, l, busCap int) refDesign {
	reject := func(code Reason, chip int) refDesign { return refDesign{code: code, chip: chip} }
	mult := cfg.Clocks.DatapathMult
	for _, d := range choice {
		ii := d.II * mult
		if (d.Style == bad.Pipelined && ii != l) || (d.Style != bad.Pipelined && ii > l) {
			return reject(ReasonRateMismatch, -1)
		}
	}
	tasks, err := xfer.BuildTasks(p.Graph, p.Assignment(), p.PartChip)
	if err != nil {
		panic(err)
	}
	blocks := map[string]mem.Block{}
	for _, b := range p.Mem.Blocks {
		blocks[b.Name] = b
	}

	// Pins reserved per chip: control pins per transfer touching it, and
	// the data pins of every off-chip block a partition on it accesses.
	taskChips := func(t xfer.Task) []int {
		var cs []int
		for _, c := range []int{t.FromChip, t.ToChip} {
			if c != xfer.External && (len(cs) == 0 || cs[0] != c) {
				cs = append(cs, c)
			}
		}
		return cs
	}
	ctrl, memPins := map[int]int{}, map[int]int{}
	for _, t := range tasks {
		for _, c := range taskChips(t) {
			ctrl[c] += xfer.ControlPinsPerTask
		}
	}
	partBlocks := make([]map[string]bool, len(p.Parts))
	memBits := map[string]int{}
	for pi, set := range p.Parts {
		partBlocks[pi] = map[string]bool{}
		for _, id := range set {
			n := p.Graph.Nodes[id]
			if !n.Op.IsMemory() {
				continue
			}
			memBits[n.Mem] += n.Width
			if !partBlocks[pi][n.Mem] {
				partBlocks[pi][n.Mem] = true
				if !p.Mem.OnChip(n.Mem, p.PartChip[pi]) {
					memPins[p.PartChip[pi]] += blocks[n.Mem].DataPins()
				}
			}
		}
	}
	budget := map[int]int{}
	for ci, ch := range p.Chips.Chips {
		budget[ci] = max(0, ch.DataPins()-ctrl[ci]-memPins[ci])
	}

	// Bus width and transfer time per task.
	pins, xm := make([]int, len(tasks)), make([]int, len(tasks))
	for i, t := range tasks {
		bw := t.Bits
		for _, c := range taskChips(t) {
			bw = min(bw, budget[c])
		}
		bw = max(bw, 0)
		if bw == 0 && t.Bits > 0 {
			return reject(ReasonNoPins, -1)
		}
		bus := bw
		if busCap > 0 {
			bus = min(bus, busCap)
		}
		cycles := func(bus int) int {
			if t.Bits == 0 {
				return 0
			}
			return (t.Bits + bus - 1) / bus
		}
		x := cycles(bus)
		if x*cfg.Clocks.TransferMult > l {
			perXfer := max(1, l/cfg.Clocks.TransferMult)
			bus = (t.Bits + perXfer - 1) / perXfer
			if bus > bw {
				return reject(ReasonDataClash, -1)
			}
			x = cycles(bus)
		}
		pins[i], xm[i] = bus, x*cfg.Clocks.TransferMult
		if x > 0 {
			pins[i] = (t.Bits + x - 1) / x
		}
	}
	for ci := range p.Chips.Chips {
		demand := 0
		for i, t := range tasks {
			for _, c := range taskChips(t) {
				if c == ci {
					demand += pins[i] * xm[i]
				}
			}
		}
		if demand > budget[ci]*l {
			return reject(ReasonPinBandwidth, ci)
		}
	}
	for _, b := range p.Mem.Blocks {
		if bits := memBits[b.Name]; bits > 0 && bits > b.BandwidthPerCycle(cfg.Clocks.MainNS)*l {
			return reject(ReasonMemBandwidth, -1)
		}
	}

	// The schedule: partitions first, then transfers.
	nP := len(p.Parts)
	sched := make([]refTask, nP+len(tasks))
	caps := map[string]int{}
	for ci := range p.Chips.Chips {
		caps[fmt.Sprint("chip", ci)] = budget[ci]
	}
	for _, b := range p.Mem.Blocks {
		caps["mem "+b.Name] = b.Ports
	}
	for pi := range p.Parts {
		sched[pi] = refTask{dur: choice[pi].Latency * mult, uses: map[string]int{}}
		for name := range partBlocks[pi] {
			sched[pi].uses["mem "+name] = 1
		}
	}
	for i, t := range tasks {
		rt := refTask{dur: xm[i], uses: map[string]int{}}
		for _, c := range taskChips(t) {
			rt.uses[fmt.Sprint("chip", c)] = pins[i]
		}
		if t.FromPart != xfer.External {
			rt.deps = append(rt.deps, t.FromPart)
		}
		if t.ToPart != xfer.External {
			sched[t.ToPart].deps = append(sched[t.ToPart].deps, nP+i)
		}
		sched[nP+i] = rt
	}
	start, makespan, ok := refSchedule(sched, caps)
	if !ok {
		return reject(ReasonSchedule, -1)
	}

	// Transfer modules, then per-chip area and pins.
	d := refDesign{delay: makespan, chip: -1,
		chipPins: make([]int, len(p.Chips.Chips)), chipArea: make([]stats.Triplet, len(p.Chips.Chips))}
	var maxCtrl stats.Triplet
	mods := make([]xfer.Module, len(tasks))
	payload := map[int]int{}
	for i, t := range tasks {
		ready := 0
		if t.FromPart != xfer.External {
			ready = start[t.FromPart] + sched[t.FromPart].dur
		}
		finish := start[nP+i] + xm[i]
		dest := finish
		if t.ToPart != xfer.External {
			dest = start[t.ToPart]
		}
		wait := max(0, start[nP+i]-ready+dest-finish)
		mods[i] = xfer.PredictModule(t, wait, xm[i], pins[i], l, cfg.Lib)
		maxCtrl = maxCtrl.Max(mods[i].CtrlDelay)
		d.modules = append(d.modules, refModule{mods[i].BufferBits, wait, pins[i]})
		for _, c := range taskChips(t) {
			d.chipArea[c] = d.chipArea[c].Add(mods[i].Area)
			payload[c] = max(payload[c], pins[i])
		}
	}
	for pi, des := range choice {
		c := p.PartChip[pi]
		d.chipArea[c] = d.chipArea[c].Add(des.Area)
	}
	maxPad := 0.0
	for ci, ch := range p.Chips.Chips {
		d.chipArea[ci] = d.chipArea[ci].Add(stats.Exact(p.Mem.AreaOn(ci)))
		d.chipPins[ci] = ch.ReservedPins + ctrl[ci] + memPins[ci] + payload[ci]
		maxPad = max(maxPad, ch.Pkg.PadDelay)
	}

	// Clock, performance, delay and power.
	var overhead stats.Triplet
	power := stats.Triplet{}
	for _, des := range choice {
		overhead = overhead.Max(des.ClockOverhead)
		power = power.Add(des.Power)
	}
	clock := stats.Exact(cfg.Clocks.MainNS).Add(overhead)
	if len(tasks) > 0 {
		flight := stats.Exact(2 * maxPad).Add(maxCtrl).Add(stats.Exact(cfg.Lib.Mux.Delay))
		clock = clock.Max(flight.Scale(1 / float64(cfg.Clocks.TransferMult)))
	}
	for i, t := range tasks {
		perChip := float64(mods[i].BufferBits)*cfg.Lib.Register.Power + float64(mods[i].Pins)*cfg.Lib.Mux.Power
		power = power.Add(stats.Exact(perChip * float64(len(taskChips(t)))))
	}

	// Feasibility (paper 2.6): pins, then area, then the system bounds.
	for ci, ch := range p.Chips.Chips {
		if d.chipPins[ci] > ch.Pkg.Pins {
			d.code, d.chip = ReasonPins, ci
			return d
		}
		if d.chipArea[ci].Hi > ch.Pkg.UsableArea(d.chipPins[ci]) {
			d.areaViol = append(d.areaViol, ci)
		}
	}
	cons := cfg.Constraints
	switch {
	case len(d.areaViol) > 0:
		d.code, d.chip = ReasonArea, d.areaViol[0]
	case cons.Perf.Bound > 0 && !cons.Perf.Satisfied(clock.Scale(float64(l))):
		d.code = ReasonPerf
	case cons.Delay.Bound > 0 && !cons.Delay.Satisfied(clock.Scale(float64(makespan))):
		d.code = ReasonDelay
	case cons.Power.Bound > 0 && !cons.Power.Satisfied(power):
		d.code = ReasonPower
	default:
		d.feasible = true
	}
	return d
}

// refSchedule is the urgency list scheduler stepped one cycle at a time.
// A task's urgency is the longest duration-weighted path from it to a
// sink. Each cycle first retires finished tasks, then sweeps the ready
// list in decreasing urgency (ties to the lower index) until nothing more
// launches; a task launches when its predecessors have finished and every
// resource it uses has room, and a task readied during a sweep waits for
// the next sweep, so zero-duration chains cascade within the cycle. It
// reports false when the tasks cannot all be scheduled.
func refSchedule(tasks []refTask, caps map[string]int) (start []int, makespan int, ok bool) {
	n := len(tasks)
	succs := map[int][]int{}
	for i, t := range tasks {
		for _, d := range t.deps {
			succs[d] = append(succs[d], i)
		}
		if t.dur < 0 {
			return nil, 0, false
		}
		for r, w := range t.uses {
			if w > caps[r] {
				return nil, 0, false
			}
		}
	}
	urg := map[int]int{}
	var urgency func(int, int) int
	urgency = func(i, depth int) int {
		if depth > n {
			return -1 // a cycle
		}
		if u, done := urg[i]; done {
			return u
		}
		u := 0
		for _, s := range succs[i] {
			su := urgency(s, depth+1)
			if su < 0 {
				return -1
			}
			u = max(u, su)
		}
		urg[i] = u + tasks[i].dur
		return urg[i]
	}
	for i := range tasks {
		if urgency(i, 0) < 0 {
			return nil, 0, false
		}
	}
	free := map[string]int{}
	for r, c := range caps {
		free[r] = c
	}
	start = make([]int, n)
	finish := map[int]int{}
	unmet, earliest := map[int]int{}, map[int]int{}
	var ready, running []int
	for i, t := range tasks {
		start[i] = -1
		unmet[i] = len(t.deps)
		if unmet[i] == 0 {
			ready = append(ready, i)
		}
	}
	hold := func(i, sign int) {
		for r, w := range tasks[i].uses {
			free[r] += sign * w
		}
	}
	fits := func(i int) bool {
		for r, w := range tasks[i].uses {
			if free[r] < w {
				return false
			}
		}
		return true
	}
	done := 0
	horizon := 16
	for _, t := range tasks {
		horizon += t.dur + 1
	}
	for t := 0; done < n; t++ {
		if t > 2*horizon {
			return nil, 0, false
		}
		var still []int
		for _, i := range running {
			if finish[i] > t {
				still = append(still, i)
			} else {
				hold(i, +1)
			}
		}
		running = still
		for launched := true; launched; {
			launched = false
			sort.Slice(ready, func(a, b int) bool {
				if urg[ready[a]] != urg[ready[b]] {
					return urg[ready[a]] > urg[ready[b]]
				}
				return ready[a] < ready[b]
			})
			var next []int
			for _, i := range ready {
				if earliest[i] > t || !fits(i) {
					next = append(next, i)
					continue
				}
				start[i], finish[i] = t, t+tasks[i].dur
				makespan = max(makespan, finish[i])
				done++
				launched = true
				if tasks[i].dur > 0 {
					hold(i, -1)
					running = append(running, i)
				}
				for _, s := range succs[i] {
					earliest[s] = max(earliest[s], finish[i])
					if unmet[s]--; unmet[s] == 0 {
						next = append(next, s)
					}
				}
			}
			ready = next
		}
	}
	return start, makespan, true
}

// randomRefPartitioning builds a small random partitioning: a random DAG,
// optionally reading one or two memory blocks (on a chip or off the chip
// set), split by levels into 1-3 partitions on 1-3 chips of random
// packages. It returns nil when the draw is not a valid partitioning.
func randomRefPartitioning(rng *rand.Rand) *Partitioning {
	g := dfg.RandomDAG(rng.Int63(), 1+rng.Intn(3), 3+rng.Intn(6), 16)
	nChips := 1 + rng.Intn(3)
	var ms mem.System
	for b := 0; b < rng.Intn(3); b++ {
		blk := mem.Block{Name: fmt.Sprint("M", b), Words: 16 << rng.Intn(5), Width: 8 << rng.Intn(2),
			Ports: 1 + rng.Intn(2), AccessTime: float64(50 + rng.Intn(400)), Area: float64(1000 + rng.Intn(4000)),
			ControlPins: 1 + rng.Intn(2), OffChip: rng.Intn(3) == 0}
		ms.Blocks = append(ms.Blocks, blk)
		if !blk.OffChip && rng.Intn(4) > 0 {
			if ms.Assign == nil {
				ms.Assign = mem.Assignment{}
			}
			ms.Assign[blk.Name] = rng.Intn(nChips)
		}
		// A read feeding a new adder whose other operand is an existing
		// node, and whose result leaves the system.
		for r := 0; r < 1+rng.Intn(2); r++ {
			rd := g.AddMemNode(fmt.Sprint("rd", b, r), dfg.OpMemRd, blk.Width, blk.Name)
			a := g.AddNode(fmt.Sprint("ma", b, r), dfg.OpAdd, 16)
			g.MustConnect(rd, a)
			g.MustConnect(rng.Intn(len(g.Nodes)-2), a)
			o := g.AddNode(fmt.Sprint("mo", b, r), dfg.OpOutput, 16)
			g.MustConnect(a, o)
		}
	}
	nParts := 1 + rng.Intn(3)
	p := &Partitioning{Graph: g, Parts: dfg.LevelPartitions(g, nParts), Mem: ms}
	for range p.Parts {
		p.PartChip = append(p.PartChip, rng.Intn(nChips))
	}
	pins := []int{40, 64, 84, 100}
	for c := 0; c < nChips; c++ {
		pkg := chip.Package{Name: fmt.Sprint("pkg", c), Width: float64(250 + rng.Intn(150)),
			Height: float64(300 + rng.Intn(100)), Pins: pins[rng.Intn(len(pins))],
			PadDelay: float64(10 + rng.Intn(60)), PadArea: 297.6}
		p.Chips.Chips = append(p.Chips.Chips, chip.Chip{Name: fmt.Sprint("c", c), Pkg: pkg, ReservedPins: rng.Intn(9)})
	}
	if p.Validate() != nil {
		return nil
	}
	return p
}

// randomRefConfig draws experiment 1 or 2 under the extended library, a
// random narrow bus and, sometimes, a power bound.
func randomRefConfig(rng *rand.Rand) Config {
	cfg := exp1Config()
	if rng.Intn(2) == 0 {
		cfg = exp2Config()
	}
	cfg.Lib = lib.ExtendedLibrary()
	cfg.KeepAll = true
	cfg.MaxBusPins = []int{0, 4, 8, 16}[rng.Intn(4)]
	if rng.Intn(4) == 0 {
		cfg.Constraints.Power = stats.Constraint{Bound: float64(20 + rng.Intn(200)), MinProb: 0.5}
	}
	return cfg
}

// TestIntegratorMatchesReference compares DebugIntegrator.Eval with the
// referee on random small partitionings: verdict, reason and its chip,
// system delay, pins and area per chip, and every module's buffer, wait
// and bus width.
func TestIntegratorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases, trials, narrow := 0, 0, 0
	verdicts := map[Reason]int{}
	for cases < 120 {
		p := randomRefPartitioning(rng)
		if p == nil {
			continue
		}
		cfg := randomRefConfig(rng)
		if tasks, _ := xfer.BuildTasks(p.Graph, p.Assignment(), p.PartChip); len(p.Parts)+len(tasks) > 8 {
			continue
		}
		preds, err := PredictPartitions(p, cfg)
		if err != nil {
			continue
		}
		lists := make([][]bad.Design, len(preds))
		viable := true
		for i, r := range preds {
			lists[i] = r.Designs
			viable = viable && len(r.Designs) > 0
		}
		if !viable {
			continue
		}
		cases++
		it := NewDebugIntegrator(p, cfg)
		intervals := iterativeIntervals(cfg, lists)
		for k := 0; k < 25; k++ {
			choice := make([]bad.Design, len(lists))
			l := 0
			for i, list := range lists {
				choice[i] = list[rng.Intn(len(list))]
				l = max(l, choice[i].IIMainCycles(cfg.Clocks))
			}
			switch rng.Intn(4) {
			case 0:
				l = intervals[rng.Intn(len(intervals))]
			case 1:
				l += rng.Intn(l + 1)
			}
			got, want := it.Eval(choice, l), refIntegrate(p, cfg, choice, l)
			trials++
			verdicts[want.code]++
			if want.narrow {
				narrow++
			}
			if err := refCompare(got, want); err != nil {
				t.Fatalf("case %d trial %d (l=%d, %d partitions, %d chips): %v",
					cases, k, l, len(p.Parts), len(p.Chips.Chips), err)
			}
		}
	}
	t.Logf("%d partitionings, %d trials, %d feasible on the narrow bus, verdicts %v", cases, trials, narrow, verdicts)
	for _, r := range []Reason{ReasonNone, ReasonRateMismatch, ReasonDataClash, ReasonPinBandwidth,
		ReasonMemBandwidth, ReasonArea, ReasonPower} {
		if verdicts[r] == 0 {
			t.Errorf("corpus never reached verdict %s", r)
		}
	}
	if narrow == 0 {
		t.Error("corpus never made a design feasible on the narrow bus")
	}
}

// refCompare reports the first difference between a design and the
// referee's prediction for it.
func refCompare(got GlobalDesign, want refDesign) error {
	if got.Feasible != want.feasible || got.ReasonCode != want.code || got.ReasonChip != want.chip {
		return fmt.Errorf("verdict %v/%s/chip %d, reference %v/%s/chip %d (%s)",
			got.Feasible, got.ReasonCode, got.ReasonChip, want.feasible, want.code, want.chip, got.Reason)
	}
	if want.chipPins == nil {
		return nil // rejected before integration
	}
	if got.DelayMain != want.delay {
		return fmt.Errorf("delay %d, reference %d", got.DelayMain, want.delay)
	}
	if fmt.Sprint(got.ChipPins) != fmt.Sprint(want.chipPins) {
		return fmt.Errorf("chip pins %v, reference %v", got.ChipPins, want.chipPins)
	}
	if fmt.Sprint(got.ChipArea) != fmt.Sprint(want.chipArea) {
		return fmt.Errorf("chip area %v, reference %v", got.ChipArea, want.chipArea)
	}
	if len(got.Modules) != len(want.modules) {
		return fmt.Errorf("%d modules, reference %d", len(got.Modules), len(want.modules))
	}
	for i, m := range got.Modules {
		if w := want.modules[i]; m.BufferBits != w.bufferBits || m.Wait != w.wait || m.Pins != w.pins {
			return fmt.Errorf("module %s: buffer/wait/pins %d/%d/%d, reference %d/%d/%d",
				m.Task.Name, m.BufferBits, m.Wait, m.Pins, w.bufferBits, w.wait, w.pins)
		}
	}
	return nil
}
