// Package bad implements BAD, the Behavioral Area-Delay predictor embedded
// in CHOP (paper reference [5] and section 2.4). Given a partition's
// data-flow graph, a component library and an architecture style, it
// enumerates candidate implementations over
//
//   - design style (pipelined / non-pipelined),
//   - every module-set combination,
//   - serial/parallel trade-offs (functional-unit allocation sweeps driven
//     by a candidate initiation-interval range),
//
// and predicts for each candidate the complete characteristics: schedule
// (stages, initiation interval, latency), register bits, multiplexer count,
// PLA controller area and delay, standard-cell routing area, the delays
// added to the clock cycle, memory bandwidth demands, and a power estimate
// (a paper-section-5 extension). All physical quantities are statistical
// triplets (package stats).
//
// Level-1 pruning (paper section 2.1) happens here: predictions that are
// infeasible against the per-chip area bound or the performance/delay
// constraints, or that are inferior (Pareto-dominated), are discarded
// immediately unless Config.KeepAll is set.
package bad

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"chop/internal/alloc"
	"chop/internal/ctrl"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/sched"
	"chop/internal/stats"
	"chop/internal/wire"
)

// DesignStyle distinguishes pipelined from non-pipelined partition
// implementations.
type DesignStyle int

// Design styles.
const (
	NonPipelined DesignStyle = iota
	Pipelined
)

func (s DesignStyle) String() string {
	if s == Pipelined {
		return "pipelined"
	}
	return "non-pipelined"
}

// Clocks is the clocking input of CHOP (paper section 2.2): a main clock
// from which the datapath and data-transfer clocks are derived as integer
// multiples.
type Clocks struct {
	MainNS       float64 // main clock period in ns (300 in the paper)
	DatapathMult int     // datapath cycle = DatapathMult * main cycles
	TransferMult int     // transfer cycle = TransferMult * main cycles
}

// DatapathNS returns the datapath clock period in nanoseconds.
func (c Clocks) DatapathNS() float64 { return c.MainNS * float64(c.DatapathMult) }

// TransferNS returns the data-transfer clock period in nanoseconds.
func (c Clocks) TransferNS() float64 { return c.MainNS * float64(c.TransferMult) }

// Validate checks the clock configuration.
func (c Clocks) Validate() error {
	if c.MainNS <= 0 {
		return fmt.Errorf("bad: non-positive main clock %v", c.MainNS)
	}
	if c.DatapathMult < 1 || c.TransferMult < 1 {
		return fmt.Errorf("bad: clock multipliers must be >= 1 (got %d, %d)",
			c.DatapathMult, c.TransferMult)
	}
	return nil
}

// Style is the architecture style input (paper section 2.2): whether
// operations may take multiple datapath cycles, and which design styles BAD
// should consider.
type Style struct {
	// MultiCycle allows operations to occupy several datapath cycles. When
	// false (single-cycle style), every operation must complete within one
	// datapath cycle and module sets containing slower modules are skipped.
	MultiCycle bool
	// NoPipelined / NoNonPipelined restrict the considered design styles;
	// by default both are explored, as BAD does.
	NoPipelined    bool
	NoNonPipelined bool
	// Testability, when true, applies the scan-design overhead extension:
	// every register bit doubles as a scan cell (area and clock-overhead
	// surcharge, one extra pin pair reserved at integration).
	Testability bool
}

// Testability overhead constants (extension; paper section 5 names
// testability as future work). A mux-equivalent is added per scan register
// bit and the scan chain adds setup into the clock cycle.
const (
	scanAreaPerRegBit = 9.0 // mil^2 per register bit for scan wiring/cell
	scanClockOverhead = 1.5 // ns added to the clock cycle
)

// Config parameterizes one BAD prediction run.
type Config struct {
	Lib    *lib.Library
	Style  Style
	Clocks Clocks
	// MaxArea is the optimistic per-chip usable area bound in square mils
	// used for level-1 pruning (0 disables the area prune).
	MaxArea float64
	// Perf is the performance constraint on the design's initiation
	// interval in ns (Bound 0 disables). MinProb per the feasibility
	// criteria (1.0 in the paper's experiments).
	Perf stats.Constraint
	// Delay is the system-delay constraint applied to the partition's own
	// compute latency in ns (Bound 0 disables). The full system delay is
	// re-checked after integration; here it only prunes hopeless designs.
	Delay stats.Constraint
	// KeepAll disables level-1 pruning so the whole design space is
	// retained (paper Figs. 7 and 8).
	KeepAll bool
	// MaxII caps the initiation-interval sweep in datapath cycles; 0
	// derives the cap from Perf or, failing that, the serial latency.
	MaxII int
	// MaxRepair bounds the allocation-repair attempts per candidate
	// initiation interval (default 6).
	MaxRepair int
	// ForceDirected selects force-directed scheduling (Paulin & Knight,
	// paper reference [9]) for the non-pipelined design-style sweep in
	// place of the default minimum-allocation list scheduling with repair.
	ForceDirected bool
	// Trace, Span and Metrics are the observability hooks (package obs),
	// all nil-safe and off by default. Span, when non-nil, receives this
	// prediction's events directly (core sets it to the per-partition BAD
	// span); otherwise a root "Predict" span is opened on Trace.
	Trace   *obs.Tracer
	Span    *obs.Span
	Metrics *obs.Metrics
	// Cache, when non-nil, memoizes Predict results under their content
	// key (see CacheKey): repeated predictions of unchanged partitions —
	// advisor move loops, KL sweeps, server job bursts — return the cached
	// Result instead of re-sweeping the design space. Lookups count into
	// the bad.predict_cache_hit / bad.predict_cache_miss metrics.
	Cache *PredictCache
	// Inject is the fault-injection hook: when non-nil, Predict consults
	// the "bad.predict" site on entry and fails, panics or stalls on
	// demand (chaos testing). Nil is inert.
	Inject *resilience.Injector
	// Phases, when non-nil, books Predict's cost into the profiling
	// plane: cache key computation + probing as the cache-lookup phase,
	// the design-space sweep itself as the predict phase (cache misses
	// only — hits never reach the sweep). Core sets it to the run
	// accounter's global handle.
	Phases *obs.PhaseHandle
}

// Design is one predicted implementation of a partition.
type Design struct {
	Style     DesignStyle
	ModuleSet lib.ModuleSet
	// FUs is the functional-unit allocation.
	FUs map[dfg.Op]int
	// II is the initiation interval and Latency the input-to-output
	// compute time, both in datapath cycles. For non-pipelined designs
	// II == Latency.
	II, Latency int
	// Stages is the pipeline depth, ceil(Latency/II); 1 for non-pipelined.
	Stages int
	// RegBits and Mux1Bit are the storage/steering allocation.
	RegBits, Mux1Bit int
	// Area is the predicted total partition area in square mils (FUs +
	// registers + muxes + routing + controller).
	Area stats.Triplet
	// ClockOverhead is the delay added to the main clock cycle in ns
	// (register + mux + wiring + controller; pads are added at
	// integration for off-chip paths).
	ClockOverhead stats.Triplet
	// Power is the estimated power in mW (extension).
	Power stats.Triplet
	// MemBits is the number of bits read+written per iteration per memory
	// block, used by the integration bandwidth checks.
	MemBits map[string]int
}

// IIMainCycles returns the initiation interval expressed in main-clock
// cycles, the unit of the paper's tables.
func (d Design) IIMainCycles(c Clocks) int { return d.II * c.DatapathMult }

// LatencyMainCycles returns the compute latency in main-clock cycles.
func (d Design) LatencyMainCycles(c Clocks) int { return d.Latency * c.DatapathMult }

// AdjustedClockNS returns the main clock period stretched by the predicted
// overhead, the "Clock Cycle" column of the paper's result tables.
func (d Design) AdjustedClockNS(c Clocks) stats.Triplet {
	return d.ClockOverhead.Add(stats.Exact(c.MainNS))
}

// PerfNS returns the initiation interval in nanoseconds under the adjusted
// clock.
func (d Design) PerfNS(c Clocks) stats.Triplet {
	return d.AdjustedClockNS(c).Scale(float64(d.IIMainCycles(c)))
}

// LatencyNS returns the compute latency in nanoseconds under the adjusted
// clock.
func (d Design) LatencyNS(c Clocks) stats.Triplet {
	return d.AdjustedClockNS(c).Scale(float64(d.LatencyMainCycles(c)))
}

// Result is the outcome of one Predict call.
type Result struct {
	// Designs are the retained predictions, sorted by increasing II then
	// increasing latency then increasing area (the ordering the iterative
	// heuristic requires: fastest first).
	Designs []Design
	// Total is the number of design points generated before pruning and
	// deduplication; Unique the count after deduplication; Feasible the
	// count passing the level-1 feasibility tests.
	Total, Unique, Feasible int
}

// Predict enumerates and evaluates the implementation design space of one
// partition graph.
func Predict(g *dfg.Graph, cfg Config) (Result, error) {
	if cfg.Lib == nil {
		return Result{}, fmt.Errorf("bad: nil library")
	}
	if err := cfg.Lib.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Clocks.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.MaxRepair <= 0 {
		cfg.MaxRepair = 6
	}
	if err := cfg.Inject.Fire("bad.predict"); err != nil {
		return Result{}, err
	}
	var cacheKey string
	if cfg.Cache != nil {
		ctok := cfg.Phases.Begin()
		cacheKey = CacheKey(g, cfg)
		r, ok := cfg.Cache.Get(cacheKey)
		cfg.Phases.End(ctok, obs.PhaseCacheLookup)
		if ok {
			cfg.Metrics.Inc("bad.predict_cache_hit")
			if cfg.Span != nil {
				cfg.Span.Point("predict-cache", obs.F("hit", true))
			}
			return r, nil
		}
		cfg.Metrics.Inc("bad.predict_cache_miss")
	}
	ptok := cfg.Phases.Begin()
	defer cfg.Phases.End(ptok, obs.PhasePredict)
	ops := g.FUOps()
	if len(ops) == 0 {
		return Result{}, fmt.Errorf("bad: partition %q has no operations", g.Name)
	}
	sets, err := cfg.Lib.EnumerateSets(ops)
	if err != nil {
		return Result{}, err
	}

	// Observability: attach to the caller's span (core's per-partition
	// BAD span) or open a root span when predicting standalone.
	sp := cfg.Span
	ownSpan := false
	if sp == nil && cfg.Trace.Enabled() {
		sp = cfg.Trace.Span("Predict", obs.F("graph", g.Name))
		ownSpan = true
	}
	defer cfg.Metrics.Timer("bad.predict_us")()

	w := newSweep(g, ops, cfg)
	if err := w.run(sets, sp); err != nil {
		if ownSpan {
			sp.End(obs.F("error", err.Error()))
		}
		return Result{}, err
	}
	res := w.result()
	sortDesigns(res.Designs)
	res.Feasible = 0
	for _, d := range res.Designs {
		if Feasible(d, cfg) {
			res.Feasible++
		}
	}
	if m := cfg.Metrics; m != nil {
		m.Add("bad.designs_total", int64(res.Total))
		m.Add("bad.designs_unique", int64(res.Unique))
		m.Add("bad.designs_kept", int64(len(res.Designs)))
	}
	if ownSpan {
		sp.End(obs.F("total", res.Total), obs.F("unique", res.Unique),
			obs.F("kept", len(res.Designs)), obs.F("feasible", res.Feasible))
	}
	cfg.Cache.Put(cacheKey, res)
	return res, nil
}

// Feasible applies the level-1 feasibility tests to a single design.
func Feasible(d Design, cfg Config) bool {
	if cfg.MaxArea > 0 {
		if !(stats.Constraint{Bound: cfg.MaxArea, MinProb: 1}).Satisfied(d.Area) {
			return false
		}
	}
	if cfg.Perf.Bound > 0 && !cfg.Perf.Satisfied(d.PerfNS(cfg.Clocks)) {
		return false
	}
	if cfg.Delay.Bound > 0 && !cfg.Delay.Satisfied(d.LatencyNS(cfg.Clocks)) {
		return false
	}
	return true
}

// opCycles writes into cyc the execution time in datapath cycles of each
// op in ops under the module set and style, and reports whether the set
// is usable at all.
func opCycles(set lib.ModuleSet, ops []dfg.Op, style Style, dpNS float64, cyc []int) bool {
	for op, o := range ops {
		m := set[o]
		switch {
		case style.MultiCycle:
			cyc[op] = max(int(math.Ceil(m.Delay/dpNS)), 1)
		case m.Delay > dpNS:
			return false
		default:
			cyc[op] = 1
		}
	}
	return true
}

// sweep is one Predict call's walk over the design space, compiled in
// four layers: per graph (the scheduling graph, the allocation facts and
// the memory traffic), per timing class (the module sets that give every
// op the same cycle count: node durations, everything the schedulers
// derive from them, and the sweep's trajectory of scheduled points), per
// design point (one schedule on reused scratch, then the allocation
// estimate), and per module set (costing the class's points with the
// set's own modules). A point is deduplicated on its allocation vector
// before anything else is computed, so only unique points pay for an
// estimate, and only points that survive level-1 pruning get their maps.
type sweep struct {
	cfg Config
	// ops are the graph's FU op types, indexed like sg.Ops; cyc the op
	// cycles of the module set at hand. err is the graph's compile error,
	// returned at the first usable module set.
	ops []dfg.Op
	cyc []int
	err error

	sg   *sched.Graph
	est  *alloc.Estimator
	sc   *sched.Scratch
	tm   *sched.Timing
	mems []memTraffic

	// classes are the timing classes met so far. points holds every
	// class's unique points, one class after another, and arena their
	// allocation vectors.
	classes []timingClass
	points  []point
	arena   []int
	// cur is the class being swept and seen the dedup keys (style, II,
	// latency, fus) of its points. fus is the allocation of the point
	// being built, per op.
	cur  *timingClass
	seen map[string]struct{}
	key  []byte
	fus  []int
	// runs counts the List and Modulo scheduler runs.
	runs int

	// mods are the current module set's modules per op.
	mods []lib.Module
	// res counts the points. kept holds the unique points level-1 pruning
	// keeps so far, in arrival order: under KeepAll all of them, otherwise
	// the Pareto front of the feasible ones.
	res  Result
	kept []candidate
}

// timingClass is the sweep's trajectory under one op-cycle vector. A
// schedule depends on the op durations alone, not on which module runs
// an op, so every module set with these cycles generates the same
// points: total of them, repeats included, of which points[lo:hi] are
// unique, in arrival order. maxII is the class's II cap; a class with a
// cap below 1 generates nothing.
type timingClass struct {
	cycles []int
	total  int
	lo, hi int
	maxII  int
}

// point is one unique scheduled design point of a timing class: its
// allocation is arena[fus : fus+len(ops)], and al its register and
// multiplexer estimate.
type point struct {
	style       DesignStyle
	ii, latency int
	fus         int
	al          alloc.Alloc
}

// candidate is a kept design point whose FUs and MemBits maps are not
// built yet: its allocation is arena[fus : fus+len(ops)].
type candidate struct {
	d   Design
	fus int
}

// memTraffic is the bits one memory block moves per iteration.
type memTraffic struct {
	mem  string
	bits int
}

// newSweep compiles g for a sweep over its FU op types ops. A cyclic
// graph yields a sweep that fails at its first usable module set, as
// scheduling it would.
func newSweep(g *dfg.Graph, ops []dfg.Op, cfg Config) *sweep {
	w := &sweep{cfg: cfg, ops: ops, cyc: make([]int, len(ops))}
	w.sg, w.err = sched.Compile(g)
	if w.err != nil {
		return w
	}
	w.est = alloc.Compile(g)
	w.sc = sched.NewScratch(w.sg)
	w.tm = w.sg.Time(make([]int, w.sg.Len()))
	w.seen = make(map[string]struct{})
	w.fus = make([]int, len(ops))
	w.mods = make([]lib.Module, len(ops))
	for _, n := range g.Nodes {
		if !n.Op.IsMemory() {
			continue
		}
		i := slices.IndexFunc(w.mems, func(m memTraffic) bool { return m.mem == n.Mem })
		if i < 0 {
			i = len(w.mems)
			w.mems = append(w.mems, memTraffic{mem: n.Mem})
		}
		w.mems[i].bits += n.Width
	}
	return w
}

// run sweeps the module sets in order: each usable set costs the points
// of its timing class, which the class's first set schedules.
func (w *sweep) run(sets []lib.ModuleSet, sp *obs.Span) error {
	dpNS := w.cfg.Clocks.DatapathNS()
	for _, set := range sets {
		if !opCycles(set, w.ops, w.cfg.Style, dpNS, w.cyc) {
			if sp != nil {
				sp.Point("moduleset", obs.F("id", set.ID()), obs.F("skipped", "too-slow"))
			}
			continue // single-cycle style with a module slower than the cycle
		}
		if w.err != nil {
			return w.err
		}
		c := w.class()
		if c.maxII < 1 {
			continue
		}
		w.cost(set, c)
		if sp != nil {
			sp.Point("moduleset", obs.F("id", set.ID()), obs.F("designs", c.total))
		}
	}
	return nil
}

// class returns the timing class of the op cycles in w.cyc, sweeping it
// first when no earlier module set had these cycles.
func (w *sweep) class() *timingClass {
	for i := range w.classes {
		if slices.Equal(w.classes[i].cycles, w.cyc) {
			return &w.classes[i]
		}
	}
	w.classes = append(w.classes, timingClass{cycles: slices.Clone(w.cyc)})
	c := &w.classes[len(w.classes)-1]
	w.sweepClass(c)
	return c
}

// sweepClass retimes the graph under c's op cycles and records c's
// trajectory: every schedule the non-pipelined and pipelined sweeps
// build, deduplicated.
func (w *sweep) sweepClass(c *timingClass) {
	w.cur = c
	dur := w.tm.Dur
	for id, op := range w.sg.OpOf {
		if op >= 0 {
			dur[id] = c.cycles[op]
		}
	}
	w.tm.Retime(dur)
	clear(w.seen)
	c.lo = len(w.points)

	cfg := w.cfg
	minLat, serial := w.tm.Critical, w.tm.Serial
	c.maxII = cfg.MaxII
	if c.maxII == 0 {
		if cfg.Perf.Bound > 0 {
			c.maxII = int(cfg.Perf.Bound / cfg.Clocks.DatapathNS())
		} else {
			c.maxII = serial
		}
	}
	// Non-pipelined sweep: target latency L == II. Every schedule built
	// along the allocation-repair path is a legitimate design point at
	// its actual latency, so all are recorded; the paper's prediction
	// totals likewise count re-encountered designs (Fig. 7: 13411
	// encountered, 699 unique).
	if !cfg.Style.NoNonPipelined {
		hi := min(serial, c.maxII)
		for L := minLat; L <= hi; L++ {
			if cfg.ForceDirected {
				w.forceDirected(L)
			} else {
				w.nonPipelined(L)
			}
		}
	}
	// Pipelined sweep: every candidate initiation interval below the
	// latency floor (no pipelining benefit past it). The wheels are sized
	// once, for the largest.
	if hi := min(c.maxII, minLat-1); !cfg.Style.NoPipelined && w.tm.MaxDur <= hi {
		w.sc.Reserve(hi)
		for ii := w.tm.MaxDur; ii <= hi; ii++ {
			w.pipelined(ii)
		}
	}
	c.hi = len(w.points)
}

// nonPipelined sweeps one target latency with list scheduling: start from
// the minimum allocation and add a unit to the bottleneck op until the
// schedule meets the target or the repair budget runs out, recording
// every schedule on the way.
func (w *sweep) nonPipelined(target int) {
	w.fus = w.tm.MinFUs(target, w.fus)
	for attempt := 0; ; attempt++ {
		w.runs++
		lat, err := w.tm.List(w.fus, w.sc)
		if err != nil {
			return
		}
		w.record(NonPipelined, lat, lat, w.sc.Start)
		if lat <= target || attempt >= w.cfg.MaxRepair {
			return
		}
		w.bumpBottleneck()
	}
}

// forceDirected builds the non-pipelined design for a target latency
// with force-directed scheduling: the schedule determines the allocation
// (peak concurrency) rather than the other way around.
func (w *sweep) forceDirected(target int) {
	prob := sched.Problem{G: w.sg.G, Cycles: func(n dfg.Node) int { return w.tm.Dur[n.ID] }}
	r, fus, ok, err := sched.ForceDirected(prob, target)
	if err != nil || !ok {
		return
	}
	for op, o := range w.sg.Ops {
		w.fus[op] = fus[o]
	}
	w.record(NonPipelined, r.Latency, r.Latency, r.Start)
}

// pipelined sweeps one initiation interval with modulo scheduling,
// repairing the allocation like nonPipelined; only a schedule that
// sustains the interval is a design point.
func (w *sweep) pipelined(ii int) {
	w.fus = w.tm.MinFUs(ii, w.fus)
	for attempt := 0; ; attempt++ {
		w.runs++
		if lat, ok := w.tm.Modulo(w.fus, ii, w.sc); ok {
			w.record(Pipelined, ii, lat, w.sc.Start)
			return
		}
		if attempt >= w.cfg.MaxRepair {
			return
		}
		w.bumpBottleneck()
	}
}

// bumpBottleneck adds one FU to the most contended operation type.
func (w *sweep) bumpBottleneck() {
	worstOp, worst := -1, -1.0
	for op, cnt := range w.sg.Count {
		n := w.fus[op]
		if n >= cnt {
			continue // already fully parallel
		}
		if pressure := float64(cnt*w.cur.cycles[op]) / float64(n); pressure > worst {
			worst, worstOp = pressure, op
		}
	}
	if worstOp >= 0 {
		w.fus[worstOp]++
	}
}

// record counts one design point of the class being swept with the
// current allocation and, when it is new, keeps it with its allocation
// estimate.
func (w *sweep) record(style DesignStyle, ii, latency int, start []int) {
	w.cur.total++
	k := append(w.key[:0], byte(style))
	k = binary.AppendUvarint(k, uint64(ii))
	k = binary.AppendUvarint(k, uint64(latency))
	for _, n := range w.fus {
		k = binary.AppendUvarint(k, uint64(n))
	}
	w.key = k
	if _, dup := w.seen[string(k)]; dup {
		return
	}
	w.seen[string(k)] = struct{}{}
	w.points = append(w.points, point{
		style: style, ii: ii, latency: latency, fus: len(w.arena),
		al: w.est.Estimate(start, w.tm.Dur, w.fus, ii),
	})
	w.arena = append(w.arena, w.fus...)
}

// cost predicts every point of class c with the module set's modules, in
// arrival order, and applies the level-1 prune. The class's counts add
// to the set's: its points are the set's points.
func (w *sweep) cost(set lib.ModuleSet, c *timingClass) {
	for op, o := range w.ops {
		w.mods[op] = set[o]
	}
	w.res.Total += c.total
	w.res.Unique += c.hi - c.lo
	for i := c.lo; i < c.hi; i++ {
		p := &w.points[i]
		d := price(w.cfg, set, w.mods, w.sg.Count, w.arena[p.fus:p.fus+len(w.ops)], p)
		if !w.cfg.KeepAll {
			// Level-1 prune: discard immediately if clearly infeasible.
			if !Feasible(d, w.cfg) {
				w.cfg.Metrics.Inc("bad.pruned_level1")
				continue
			}
			if !w.joinFront(&d) {
				continue
			}
		}
		w.kept = append(w.kept, candidate{d: d, fus: p.fus})
	}
}

// joinFront keeps kept the Pareto front of the feasible points: it
// reports false when d is inferior to a kept point, and otherwise drops
// the kept points d makes inferior. Every point seen is on the front or
// inferior to a point on it, and inferiority is transitive, so the final
// front is exactly the set of points no feasible point is superior to,
// in arrival order.
func (w *sweep) joinFront(d *Design) bool {
	for i := range w.kept {
		if superior(&w.kept[i].d, d) {
			return false
		}
	}
	w.kept = slices.DeleteFunc(w.kept, func(c candidate) bool { return superior(d, &c.d) })
	return true
}

// superior reports whether e makes d inferior: e is no worse on
// initiation interval, latency and most-likely area, and strictly better
// on at least one.
func superior(e, d *Design) bool {
	return e.II <= d.II && e.Latency <= d.Latency && e.Area.ML <= d.Area.ML &&
		(e.II < d.II || e.Latency < d.Latency || e.Area.ML < d.Area.ML)
}

// result completes the kept points into Designs with their FUs and
// MemBits maps. Without level-1 pruning and with nothing kept, Designs
// stays nil; with pruning, an empty front is an empty slice.
func (w *sweep) result() Result {
	res := w.res
	if w.kept == nil && w.cfg.KeepAll {
		return res
	}
	res.Designs = make([]Design, len(w.kept))
	for i, c := range w.kept {
		d := c.d
		d.FUs = make(map[dfg.Op]int, len(w.ops))
		for op, n := range w.arena[c.fus : c.fus+len(w.ops)] {
			if n > 0 {
				d.FUs[w.ops[op]] = n
			}
		}
		if len(w.mems) > 0 {
			d.MemBits = make(map[string]int, len(w.mems))
			for _, m := range w.mems {
				d.MemBits[m.mem] = m.bits
			}
		}
		res.Designs[i] = d
	}
	return res
}

// price predicts scheduled point p, whose allocation is fus, under
// module set set: every Design field but the FUs and MemBits maps. mods
// are the set's modules and count the graph's nodes, per op. Sums over
// ops run in op order, so results do not depend on map iteration.
func price(cfg Config, set lib.ModuleSet, mods []lib.Module, count, fus []int, p *point) Design {
	l := cfg.Lib
	al := p.al

	var fuArea, fuPower float64
	maxShare := 1
	for op, n := range fus {
		if n == 0 {
			continue
		}
		fuArea += float64(n) * mods[op].Area
		fuPower += float64(n) * mods[op].Power
		maxShare = max(maxShare, (count[op]+n-1)/n)
	}
	regArea := float64(al.RegisterBits) * l.Register.Area
	muxArea := float64(al.Mux1Bit) * l.Mux.Area
	cellArea := fuArea + regArea + muxArea
	if cfg.Style.Testability {
		cellArea += scanAreaPerRegBit * float64(al.RegisterBits)
	}
	routing := wire.RoutingArea(cellArea, al.Nets)

	ii, latency := p.ii, p.latency
	states := latency
	if p.style == Pipelined && ii < states {
		states = ii * sched.Stages(latency, ii) // controller tracks all stages
	}
	states = max(states, 1)
	pla := ctrl.ForFSM(states, 0, al.Nets)
	plaArea := pla.Area()
	area := stats.Sum(stats.Exact(cellArea), routing, plaArea)

	// Clock overhead: register setup + mux tree + wiring + controller.
	muxLevels := max(int(math.Ceil(math.Log2(float64(maxShare)))), 1)
	overhead := stats.Sum(
		stats.Exact(l.Register.Delay),
		stats.Exact(float64(muxLevels)*l.Mux.Delay),
		wire.Delay(area.ML),
		pla.Delay(),
	)
	if cfg.Style.Testability {
		overhead = overhead.Add(stats.Exact(scanClockOverhead))
	}

	power := fuPower + float64(al.RegisterBits)*l.Register.Power + float64(al.Mux1Bit)*l.Mux.Power
	return Design{
		Style:         p.style,
		ModuleSet:     set,
		II:            ii,
		Latency:       latency,
		Stages:        sched.Stages(latency, ii),
		RegBits:       al.RegisterBits,
		Mux1Bit:       al.Mux1Bit,
		Area:          area,
		ClockOverhead: overhead,
		Power:         stats.Spread(power, 0.10, 0.20),
	}
}

func sortDesigns(ds []Design) {
	less := func(a, b *Design) bool {
		if a.II != b.II {
			return a.II < b.II
		}
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		return a.Area.ML < b.Area.ML
	}
	slices.SortStableFunc(ds, func(a, b Design) int {
		switch {
		case less(&a, &b):
			return -1
		case less(&b, &a):
			return 1
		}
		return 0
	})
}
