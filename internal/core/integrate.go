package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/stats"
	"chop/internal/urgency"
	"chop/internal/xfer"
)

// Reason classifies why an integration was rejected: the machine-readable
// companion of GlobalDesign.Reason, driving the rejection histograms of
// the observability layer and `chop explain`. ReasonNone marks feasible
// designs.
type Reason int

// Rejection reasons, in the order the feasibility checks run.
const (
	ReasonNone         Reason = iota
	ReasonRateMismatch        // pipelined data rate differs from the system interval
	ReasonNoPins              // a transfer has no pins available at all
	ReasonDataClash           // a transfer outlasts the initiation interval (paper 2.5)
	ReasonPinBandwidth        // steady-state pin-cycles exceed a chip's budget
	ReasonMemBandwidth        // a memory block's bandwidth is exceeded
	ReasonSchedule            // urgency scheduling failed
	ReasonPins                // a chip needs more pins than its package has
	ReasonArea                // a chip's area exceeds the usable package area
	ReasonPerf                // system initiation interval violates the Perf bound
	ReasonDelay               // system delay violates the Delay bound
	ReasonPower               // system power violates the Power bound
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "ok"
	case ReasonRateMismatch:
		return "rate-mismatch"
	case ReasonNoPins:
		return "no-pins"
	case ReasonDataClash:
		return "data-clash"
	case ReasonPinBandwidth:
		return "pin-bandwidth"
	case ReasonMemBandwidth:
		return "mem-bandwidth"
	case ReasonSchedule:
		return "schedule"
	case ReasonPins:
		return "pins"
	case ReasonArea:
		return "area"
	case ReasonPerf:
		return "perf"
	case ReasonDelay:
		return "delay"
	case ReasonPower:
		return "power"
	}
	return fmt.Sprintf("Reason(%d)", int(r))
}

// rejectCounters are the metrics counter names of the rejection reasons,
// built once so a rejected trial books without building a string.
var rejectCounters = func() (names [ReasonPower + 1]string) {
	for r := range names {
		names[r] = "core.reject." + Reason(r).String()
	}
	return names
}()

// GlobalDesign is one integrated implementation of the whole partitioning:
// one predicted design per partition plus the predicted data-transfer
// modules, evaluated against the system constraints.
type GlobalDesign struct {
	// Choice holds the selected predicted design of each partition.
	Choice []bad.Design
	// IIMain is the system initiation interval l and DelayMain the system
	// delay, both in main-clock cycles (the units of paper Tables 4/6).
	IIMain, DelayMain int
	// Clock is the adjusted main-clock period in ns (the "Clock Cycle"
	// column).
	Clock stats.Triplet
	// PerfNS and DelayNS are the initiation interval and system delay in
	// nanoseconds under the adjusted clock.
	PerfNS, DelayNS stats.Triplet
	// ChipArea is the predicted total area per chip (partitions + transfer
	// modules + on-chip memory).
	ChipArea []stats.Triplet
	// ChipPins is the number of used signal pins per chip.
	ChipPins []int
	// Modules are the predicted data-transfer modules, one per transfer
	// task (instantiated on every involved chip).
	Modules []xfer.Module
	// Power is the total system power estimate in mW (extension).
	Power stats.Triplet
	// Feasible reports whether every constraint passed; Reason names the
	// first violated check otherwise.
	Feasible bool
	Reason   string
	// ReasonCode classifies the violated check and ReasonChip attributes
	// it to a 0-based chip index for chip-specific reasons (area, pins,
	// pin bandwidth); ReasonChip is -1 when the rejection is not tied to
	// one chip (or the design is feasible).
	ReasonCode Reason
	ReasonChip int
	// AreaViolations lists the chips whose area constraint failed; the
	// iterative heuristic serializes partitions on exactly these chips
	// (paper Fig. 5).
	AreaViolations []int
	// Schedule is the urgency-scheduled task timeline (partitions first,
	// then transfer tasks), in main-clock cycles.
	Schedule []TaskSpan
	// why holds a rejection's reason arguments until own formats Reason
	// from them; it is zero on every design that has left the search.
	why rejection
}

// TaskSpan is one scheduled task in a global design's timeline.
type TaskSpan struct {
	Name  string
	Start int
	Dur   int
	// Chips lists the chips the task occupies pins on (empty for
	// partition executions).
	Chips []int
}

// TotalArea returns the most-likely total silicon area across all chips.
func (g GlobalDesign) TotalArea() float64 {
	var a float64
	for _, c := range g.ChipArea {
		a += c.ML
	}
	return a
}

// rejection is the argument list of a rejected trial's reason text. The
// search keeps it instead of formatting Reason on the hot path; only a
// design that leaves the search pays for the text (see own).
type rejection struct {
	name string // the transfer or memory block at fault
	n    [4]int
	x, y float64
	err  error
}

// reasonText formats the Reason of a design rejected for code.
func reasonText(code Reason, r rejection) string {
	n := r.n
	switch code {
	case ReasonRateMismatch:
		return fmt.Sprintf("partition %d data rate mismatch (II %d vs system %d)", n[0], n[1], n[2])
	case ReasonNoPins:
		return fmt.Sprintf("transfer %s has no pins available", r.name)
	case ReasonDataClash:
		return fmt.Sprintf("transfer %s takes %d cycles, exceeding interval %d (data clash)", r.name, n[0], n[1])
	case ReasonPinBandwidth:
		return fmt.Sprintf("chip %d pin bandwidth exceeded (%d pin-cycles > %d x %d)", n[0], n[1], n[2], n[3])
	case ReasonMemBandwidth:
		return fmt.Sprintf("memory %s bandwidth exceeded (%d bits per interval > %d)", r.name, n[0], n[1])
	case ReasonSchedule:
		return fmt.Sprintf("task scheduling failed: %v", r.err)
	case ReasonPins:
		return fmt.Sprintf("chip %d needs %d pins (package has %d)", n[0], n[1], n[2])
	case ReasonArea:
		return fmt.Sprintf("chip %d area %.0f exceeds usable %.0f", n[0], r.x, r.y)
	case ReasonPerf:
		return fmt.Sprintf("performance %.0f ns violates bound %.0f", r.x, r.y)
	case ReasonDelay:
		return fmt.Sprintf("system delay %.0f ns violates bound %.0f", r.x, r.y)
	case ReasonPower:
		return fmt.Sprintf("power %.0f mW violates bound %.0f", r.x, r.y)
	}
	return ""
}

// reject marks g infeasible for code, attributed to the 0-based chip (-1
// for system-wide reasons), keeping the reason's arguments.
func (g *GlobalDesign) reject(code Reason, chip int, why rejection) *GlobalDesign {
	g.Feasible, g.ReasonCode, g.ReasonChip, g.why = false, code, chip, why
	return g
}

// own returns g as it leaves the search: Reason formatted, and every slice
// copied out of the shard's trial scratch and the integrator's compiled
// tables, so callers never alias either. The spans' chip lists share one
// backing array. Nil slices stay nil.
func (g GlobalDesign) own() GlobalDesign {
	if !g.Feasible && g.Reason == "" {
		g.Reason = reasonText(g.ReasonCode, g.why)
	}
	g.why = rejection{}
	g.Choice = slices.Clone(g.Choice)
	g.ChipArea = slices.Clone(g.ChipArea)
	g.ChipPins = slices.Clone(g.ChipPins)
	g.Modules = slices.Clone(g.Modules)
	g.AreaViolations = slices.Clone(g.AreaViolations)
	if g.Schedule != nil {
		spans := slices.Clone(g.Schedule)
		n := 0
		for _, s := range spans {
			n += len(s.Chips)
		}
		chips := make([]int, 0, n)
		for i, s := range spans {
			if s.Chips != nil {
				lo := len(chips)
				chips = append(chips, s.Chips...)
				spans[i].Chips = chips[lo:len(chips):len(chips)]
			}
		}
		g.Schedule = spans
	}
	return g
}

// integrator is one partitioning's integration model, compiled once: every
// table below depends only on the partitioning and the configuration, so a
// trial does only the work that depends on the chosen designs. All tables
// are dense, indexed by transfer task, chip or memory block.
type integrator struct {
	p   *Partitioning
	cfg Config
	// tasks are the inter-chip data-transfer tasks.
	tasks []xfer.Task
	// Per transfer task: the chips it involves (xfer.Task.Chips) and the
	// widest bus their pin budgets allow (xfer.Bandwidth).
	chips [][]int
	bwMax []int
	// Per chip: the pins available for transfer payload, the reserved
	// control and off-chip memory pins, the transfer tasks touching it and
	// its on-chip memory area.
	budget, ctrlPins, memPins []int
	chipXfers                 [][]int
	memArea                   []float64
	// Per memory block: the bits all partitions move through it per
	// iteration, and the bits it sustains per main-clock cycle.
	memBits, memBW []int
	// graph is the urgency task graph, partitions first, then transfer
	// tasks, over chip pins and memory ports; graphErr is its compile
	// error, which rejects every trial that reaches scheduling.
	graph    *urgency.Graph
	graphErr error
	// maxPad is the largest pad delay of the chip set.
	maxPad float64
}

// newIntegrator compiles the partitioning's tables, booked as the
// search's compile phase.
func newIntegrator(p *Partitioning, cfg Config) (*integrator, error) {
	ph := cfg.Phases.Global()
	tok := ph.Begin()
	defer ph.End(tok, obs.PhaseCompile)
	nC, nP := len(p.Chips.Chips), len(p.Parts)
	for pi, ci := range p.PartChip {
		if ci < 0 || ci >= nC {
			return nil, fmt.Errorf("core: partition %d assigned to chip %d of %d", pi, ci, nC)
		}
	}
	tasks, err := xfer.BuildTasks(p.Graph, p.Assignment(), p.PartChip)
	if err != nil {
		return nil, err
	}
	it := &integrator{
		p: p, cfg: cfg, tasks: tasks,
		chips: make([][]int, len(tasks)), bwMax: make([]int, len(tasks)),
		budget: make([]int, nC), ctrlPins: make([]int, nC), memPins: make([]int, nC),
		chipXfers: make([][]int, nC), memArea: make([]float64, nC),
		memBits: make([]int, len(p.Mem.Blocks)), memBW: make([]int, len(p.Mem.Blocks)),
	}
	blockOf := make(map[string]int, len(p.Mem.Blocks))
	for bi, blk := range p.Mem.Blocks {
		blockOf[blk.Name] = bi
		it.memBW[bi] = blk.BandwidthPerCycle(cfg.Clocks.MainNS)
	}
	// Memory traffic per partition, from the subgraphs. A partition holds
	// one port of every block it accesses while it runs; off-chip blocks
	// also reserve their unshared pins on the partition's chip.
	partBlocks := make([][]int, nP)
	for pi, sub := range p.Subgraphs() {
		bits := map[string]int{}
		for _, n := range sub.Nodes {
			if n.Op.IsMemory() {
				bits[n.Mem] += n.Width
			}
		}
		ci := p.PartChip[pi]
		for name, b := range bits {
			bi, ok := blockOf[name]
			if !ok {
				return nil, fmt.Errorf("core: partition %d accesses unknown memory %q", pi+1, name)
			}
			it.memBits[bi] += b
			partBlocks[pi] = append(partBlocks[pi], bi)
			if !p.Mem.OnChip(name, ci) {
				it.memPins[ci] += p.Mem.Blocks[bi].DataPins()
			}
		}
		sort.Ints(partBlocks[pi])
	}
	// Reserved control pins per chip: per transfer task touching the chip.
	for i, t := range tasks {
		it.chips[i] = t.Chips()
		for _, c := range it.chips[i] {
			it.ctrlPins[c] += xfer.ControlPinsPerTask
			it.chipXfers[c] = append(it.chipXfers[c], i)
		}
	}
	budget := make(map[int]int, nC)
	for ci, ch := range p.Chips.Chips {
		it.budget[ci] = max(0, ch.DataPins()-it.ctrlPins[ci]-it.memPins[ci])
		budget[ci] = it.budget[ci]
		it.memArea[ci] = p.Mem.AreaOn(ci)
		it.maxPad = max(it.maxPad, ch.Pkg.PadDelay)
	}
	for i, t := range tasks {
		it.bwMax[i] = xfer.Bandwidth(t, budget)
	}
	// The urgency task graph. Memory blocks are schedulable resources too
	// (paper 2.5: the urgency scheduling keeps "memory accesses to each
	// memory block feasible"), so partitions sharing a single-port block
	// serialize. Resources are the chips' payload pins, then one per
	// memory block.
	res := make([]urgency.Resource, 0, nC+len(p.Mem.Blocks))
	for ci := range p.Chips.Chips {
		res = append(res, urgency.Resource{ID: ci, Cap: it.budget[ci]})
	}
	for bi, blk := range p.Mem.Blocks {
		res = append(res, urgency.Resource{ID: memResourceBase + bi, Cap: blk.Ports})
	}
	specs := make([]urgency.TaskSpec, nP+len(tasks))
	for pi := range p.Parts {
		specs[pi] = urgency.TaskSpec{Name: fmt.Sprintf("P%d", pi+1)}
		for _, bi := range partBlocks[pi] {
			specs[pi].Uses = append(specs[pi].Uses, nC+bi)
		}
	}
	for i, t := range tasks {
		spec := urgency.TaskSpec{Name: t.Name, Uses: it.chips[i]}
		if t.FromPart != xfer.External {
			spec.Deps = []int{t.FromPart}
		}
		if t.ToPart != xfer.External {
			specs[t.ToPart].Deps = append(specs[t.ToPart].Deps, nP+i)
		}
		specs[nP+i] = spec
	}
	it.graph, it.graphErr = urgency.Compile(specs, res)
	return it, nil
}

// trialScratch is the reusable per-trial state of one integrator, owned by
// one shard (or one DebugIntegrator): transfer bus widths and durations,
// the urgency inputs and scheduler, and two frames of design slices — the
// wide-bus attempt's and the narrow-bus retry's (see integrate).
type trialScratch struct {
	// dur and width are the urgency durations and widths in graph order;
	// xferMain and pins are their transfer-task tails.
	dur, width     []int
	xferMain, pins []int
	sched          *urgency.Scheduler
	payload        []int // per chip: widest transfer bus
	frames         [2]designFrame
}

// designFrame holds one integrated design and backs its slices until the
// next trial reuses it; a design that leaves the search copies them (own).
type designFrame struct {
	g        GlobalDesign
	schedule []TaskSpan
	modules  []xfer.Module
	chipArea []stats.Triplet
	chipPins []int
	areaViol []int
}

func (it *integrator) newScratch() *trialScratch {
	nT, nC, nP := len(it.tasks), len(it.p.Chips.Chips), len(it.p.Parts)
	sc := &trialScratch{dur: make([]int, nP+nT), width: make([]int, nP+nT), payload: make([]int, nC)}
	sc.xferMain, sc.pins = sc.dur[nP:], sc.width[nP:]
	// A partition holds one port of each memory block it accesses.
	for pi := 0; pi < nP; pi++ {
		sc.width[pi] = 1
	}
	if it.graph != nil {
		sc.sched = urgency.NewScheduler(it.graph)
	}
	for f := range sc.frames {
		sc.frames[f] = designFrame{
			schedule: make([]TaskSpan, nP+nT), modules: make([]xfer.Module, nT),
			chipArea: make([]stats.Triplet, nC), chipPins: make([]int, nC),
			areaViol: make([]int, 0, nC),
		}
	}
	return sc
}

// selectionOK checks the data-rate rules for one partition design at system
// interval l (main cycles): pipelined implementations must match l exactly
// (different pipelined data rates mismatch, paper section 2.4); faster
// non-pipelined implementations may run alongside slower ones.
func selectionOK(d *bad.Design, l int, clocks bad.Clocks) bool {
	ii := d.IIMainCycles(clocks)
	if d.Style == bad.Pipelined {
		return ii == l
	}
	return ii <= l
}

// evalTrial wraps integrate with per-trial observability: a child span, a
// "trial" point event carrying the feasibility outcome, the rejection
// reason and its chip attribution, metrics counters/latency, the shard's
// live stats cell (trial counters plus slow-trial exemplars), and the
// shard's phase cell (whole-trial bracket whose unattributed remainder
// books as the integrate phase). With tracing, metrics, stats and phases
// all disabled it adds only four nil checks, so the search hot path is
// unaffected by default; with metrics alone it allocates nothing.
func (it *integrator) evalTrial(sc *trialScratch, sp *obs.Span, ss *obs.ShardStats, ph *obs.PhaseHandle,
	choice []bad.Design, l int) (*GlobalDesign, error) {
	if err := it.cfg.Inject.Fire("core.trial"); err != nil {
		return nil, err
	}
	m := it.cfg.Metrics
	if sp == nil && m == nil && ss == nil && ph == nil {
		return it.integrate(sc, choice, l, nil)
	}
	var tsp *obs.Span
	if sp != nil {
		tsp = sp.Child("integrate", obs.F("ii", l))
	}
	ptok := ph.BeginTrial()
	t0 := time.Now()
	g, err := it.integrate(sc, choice, l, ph)
	elapsed := time.Since(t0)
	ph.EndTrial(ptok)
	if ss != nil {
		reason := ""
		if !g.Feasible {
			reason = g.ReasonCode.String()
		}
		ss.Trial(float64(elapsed.Nanoseconds())/1e3, l, g.Feasible, reason)
	}
	if sp != nil {
		tsp.End(obs.F("feasible", g.Feasible), obs.F("reason", g.ReasonCode.String()))
		fields := []obs.Field{obs.F("ii", l), obs.F("feasible", g.Feasible)}
		if !g.Feasible {
			fields = append(fields, obs.F("reason", g.ReasonCode.String()))
			if g.ReasonChip >= 0 {
				fields = append(fields, obs.F("chip", g.ReasonChip+1))
			}
		}
		sp.Point("trial", fields...)
	}
	if m != nil {
		m.Inc("core.trials")
		m.Observe("core.integrate_us", float64(elapsed.Nanoseconds())/1e3)
		if g.Feasible {
			m.Inc("core.trials_feasible")
		} else {
			m.Inc(rejectCounters[g.ReasonCode])
		}
	}
	return g, err
}

// integrate evaluates one combination of partition designs at system
// initiation interval l (main-clock cycles). It always returns a
// GlobalDesign; infeasibility is reported in Feasible/ReasonCode. A
// returned error signals a structural problem, not infeasibility. The
// design lives in sc until the next trial; own copies it out.
//
// Transfers first use the maximum possible bandwidth (paper 2.5). When that
// fails only on chip area — wide buses cost pad area — the combination is
// re-evaluated with the narrow word-parallel bus (cfg.MaxBusPins), the
// smarter pin allocation the paper's footnote 1 anticipates.
func (it *integrator) integrate(sc *trialScratch, choice []bad.Design, l int, ph *obs.PhaseHandle) (*GlobalDesign, error) {
	g, err := it.integrateBus(sc, &sc.frames[0], choice, l, 0, ph)
	if err != nil || g.Feasible || len(g.AreaViolations) == 0 {
		return g, err
	}
	narrow := it.cfg.MaxBusPins
	if narrow <= 0 {
		narrow = defaultBusPins
	}
	g2, err := it.integrateBus(sc, &sc.frames[1], choice, l, narrow, ph)
	if err != nil {
		return g, nil
	}
	if g2.Feasible {
		return g2, nil
	}
	return g, nil
}

// integrateBus is integrate at a fixed bus-width cap (0 = maximum possible
// bandwidth), building the design in frame f. ph brackets the
// schedule and xfer sections; a rejection inside a bracketed section
// abandons the bracket, so its time falls into the trial's integrate
// remainder instead (see PhaseHandle.EndTrial).
func (it *integrator) integrateBus(sc *trialScratch, f *designFrame, choice []bad.Design, l, busCap int,
	ph *obs.PhaseHandle) (*GlobalDesign, error) {
	p, cfg := it.p, it.cfg
	g := &f.g
	*g = GlobalDesign{Choice: choice, IIMain: l, ReasonChip: -1}
	if len(choice) != len(p.Parts) {
		return g, fmt.Errorf("core: %d designs for %d partitions", len(choice), len(p.Parts))
	}
	for pi := range choice {
		if d := &choice[pi]; !selectionOK(d, l, cfg.Clocks) {
			return g.reject(ReasonRateMismatch, -1, rejection{n: [4]int{pi + 1, d.IIMainCycles(cfg.Clocks), l}}), nil
		}
	}

	// ---- transfer bandwidth and duration ----
	// The available bandwidth is the minimum pin budget over the involved
	// chips (paper 2.5), optionally capped at busCap; a capped bus widens
	// again only when the data-clash bound (X <= l) demands it, and any bus
	// narrows to the fewest pins sustaining its transfer time so pads are
	// not wasted.
	xtok := ph.Begin()
	for i := range it.tasks {
		t := &it.tasks[i]
		bwMax := it.bwMax[i]
		if bwMax <= 0 && t.Bits > 0 {
			return g.reject(ReasonNoPins, -1, rejection{name: t.Name}), nil
		}
		bus := bwMax
		if busCap > 0 && busCap < bus {
			bus = busCap
		}
		x := xfer.TransferCycles(t.Bits, bus)
		xm := x * cfg.Clocks.TransferMult
		if xm > l {
			// Too slow at the natural bus width: widen to meet the clash
			// bound if the chips have the pins for it.
			maxXfer := max(1, l/cfg.Clocks.TransferMult)
			need := (t.Bits + maxXfer - 1) / maxXfer
			if need > bwMax {
				// Data clash: a transfer longer than the initiation
				// interval collides with the next sample (paper 2.5).
				return g.reject(ReasonDataClash, -1, rejection{name: t.Name, n: [4]int{xm, l}}), nil
			}
			bus = need
			x = xfer.TransferCycles(t.Bits, bus)
			xm = x * cfg.Clocks.TransferMult
		}
		pins := bus
		if x > 0 {
			pins = (t.Bits + x - 1) / x
		}
		sc.pins[i], sc.xferMain[i] = pins, xm
	}
	ph.End(xtok, obs.PhaseXfer)
	// Steady-state pin capacity per chip: the pin-cycles demanded per
	// interval must fit the budget.
	for ci, xs := range it.chipXfers {
		demand := 0
		for _, i := range xs {
			demand += sc.pins[i] * sc.xferMain[i]
		}
		if demand > it.budget[ci]*l {
			return g.reject(ReasonPinBandwidth, ci, rejection{n: [4]int{ci + 1, demand, it.budget[ci], l}}), nil
		}
	}
	// ---- memory bandwidth ----
	for bi, bits := range it.memBits {
		if bits == 0 {
			continue
		}
		if capacity := it.memBW[bi] * l; bits > capacity {
			return g.reject(ReasonMemBandwidth, -1,
				rejection{name: p.Mem.Blocks[bi].Name, n: [4]int{bits, capacity}}), nil
		}
	}

	// ---- urgency scheduling over shared pins and memory ports ----
	if it.graphErr != nil {
		return g.reject(ReasonSchedule, -1, rejection{err: it.graphErr}), nil
	}
	nP := len(p.Parts)
	for pi := range choice {
		sc.dur[pi] = choice[pi].LatencyMainCycles(cfg.Clocks)
	}
	stok := ph.Begin()
	sres, sstats, err := sc.sched.Run(sc.dur, sc.width)
	ph.End(stok, obs.PhaseSchedule)
	if err != nil {
		return g.reject(ReasonSchedule, -1, rejection{err: err}), nil
	}
	if m := cfg.Metrics; m != nil {
		m.Observe("core.urgency_tasks", float64(sstats.Tasks))
		m.Observe("core.urgency_cycles", float64(sstats.Cycles))
	}
	g.DelayMain = sres.Makespan
	g.Schedule = f.schedule
	for i := range g.Schedule {
		g.Schedule[i] = TaskSpan{Name: it.graph.Name(i), Start: sres.Start[i], Dur: sc.dur[i]}
		if i >= nP {
			g.Schedule[i].Chips = it.chips[i-nP]
		}
	}

	// ---- transfer modules (buffer sizing from wait + transfer times) ----
	xtok = ph.Begin()
	g.Modules = f.modules
	maxModCtrl := stats.Triplet{}
	for i := range it.tasks {
		t := &it.tasks[i]
		xm := sc.xferMain[i]
		ready := 0
		if t.FromPart != xfer.External {
			ready = sres.Start[t.FromPart] + sc.dur[t.FromPart]
		}
		startT := sres.Start[nP+i]
		finishT := startT + xm
		destStart := finishT
		if t.ToPart != xfer.External {
			destStart = sres.Start[t.ToPart]
		}
		wait := max(0, (startT-ready)+(destStart-finishT))
		g.Modules[i] = xfer.PredictModule(*t, wait, xm, sc.pins[i], l, cfg.Lib)
		maxModCtrl = maxModCtrl.Max(g.Modules[i].CtrlDelay)
	}
	ph.End(xtok, obs.PhaseXfer)

	// ---- per-chip area and pins ----
	g.ChipArea, g.ChipPins = f.chipArea, f.chipPins
	clear(g.ChipArea)
	clear(sc.payload)
	for i, chips := range it.chips {
		for _, c := range chips {
			g.ChipArea[c] = g.ChipArea[c].Add(g.Modules[i].Area)
			sc.payload[c] = max(sc.payload[c], sc.pins[i])
		}
	}
	for pi := range choice {
		ci := p.PartChip[pi]
		g.ChipArea[ci] = g.ChipArea[ci].Add(choice[pi].Area)
	}
	for ci := range p.Chips.Chips {
		ch := &p.Chips.Chips[ci]
		g.ChipArea[ci] = g.ChipArea[ci].Add(stats.Exact(it.memArea[ci]))
		g.ChipPins[ci] = ch.ReservedPins + it.ctrlPins[ci] + it.memPins[ci] + sc.payload[ci]
	}

	// ---- clock adjustment ----
	var maxOverhead stats.Triplet
	for pi := range choice {
		maxOverhead = maxOverhead.Max(choice[pi].ClockOverhead)
	}
	clock := stats.Exact(cfg.Clocks.MainNS).Add(maxOverhead)
	// Off-chip flight time must fit inside one transfer cycle: two pad
	// delays plus the transfer controller and pin mux.
	if len(it.tasks) > 0 {
		flight := stats.Sum(stats.Exact(2*it.maxPad), maxModCtrl, stats.Exact(cfg.Lib.Mux.Delay))
		clock = clock.Max(flight.Scale(1 / float64(cfg.Clocks.TransferMult)))
	}
	g.Clock = clock
	g.PerfNS = clock.Scale(float64(l))
	g.DelayNS = clock.Scale(float64(g.DelayMain))

	// ---- power (extension) ----
	power := stats.Triplet{}
	for pi := range choice {
		power = power.Add(choice[pi].Power)
	}
	for i := range g.Modules {
		m := &g.Modules[i]
		perChip := float64(m.BufferBits)*cfg.Lib.Register.Power +
			float64(m.Pins)*cfg.Lib.Mux.Power
		power = power.Add(stats.Exact(perChip * float64(len(it.chips[i]))))
	}
	g.Power = power

	// ---- feasibility analysis (paper section 2.6) ----
	av := f.areaViol[:0]
	for ci := range p.Chips.Chips {
		ch := &p.Chips.Chips[ci]
		if g.ChipPins[ci] > ch.Pkg.Pins {
			if len(av) > 0 {
				g.AreaViolations = av
			}
			return g.reject(ReasonPins, ci, rejection{n: [4]int{ci + 1, g.ChipPins[ci], ch.Pkg.Pins}}), nil
		}
		usable := ch.Pkg.UsableArea(g.ChipPins[ci])
		if !(stats.Constraint{Bound: usable, MinProb: 1}).Satisfied(g.ChipArea[ci]) {
			av = append(av, ci)
		}
	}
	if len(av) > 0 {
		g.AreaViolations = av
		ci := av[0]
		usable := p.Chips.Chips[ci].Pkg.UsableArea(g.ChipPins[ci])
		return g.reject(ReasonArea, ci, rejection{n: [4]int{ci + 1}, x: g.ChipArea[ci].Hi, y: usable}), nil
	}
	if b := cfg.Constraints.Perf; b.Bound > 0 && !b.Satisfied(g.PerfNS) {
		return g.reject(ReasonPerf, -1, rejection{x: g.PerfNS.Hi, y: b.Bound}), nil
	}
	if b := cfg.Constraints.Delay; b.Bound > 0 && !b.Satisfied(g.DelayNS) {
		return g.reject(ReasonDelay, -1, rejection{x: g.DelayNS.Mean(), y: b.Bound}), nil
	}
	if b := cfg.Constraints.Power; b.Bound > 0 && !b.Satisfied(g.Power) {
		return g.reject(ReasonPower, -1, rejection{x: g.Power.Mean(), y: b.Bound}), nil
	}
	g.Feasible = true
	return g, nil
}

// memResourceBase offsets the memory-port resource IDs past any real chip
// index in scheduling error messages.
const memResourceBase = 1 << 20

// DebugIntegrator exposes integrate for white-box probing; not part of the
// public surface.
type DebugIntegrator struct {
	it *integrator
	sc *trialScratch
}

// NewDebugIntegrator builds an integrator or panics.
func NewDebugIntegrator(p *Partitioning, cfg Config) *DebugIntegrator {
	it, err := newIntegrator(p, cfg)
	if err != nil {
		panic(err)
	}
	return &DebugIntegrator{it, it.newScratch()}
}

// Eval runs one integration and returns the design as a search would
// report it: Reason formatted, slices owned by the caller.
func (d *DebugIntegrator) Eval(choice []bad.Design, l int) GlobalDesign {
	g, err := d.it.integrate(d.sc, choice, l, nil)
	if err != nil {
		panic(err)
	}
	return g.own()
}
