package bad

import (
	"math"
	"testing"

	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/stats"
)

// exp1Clocks are the paper's experiment-1 clocks: 300 ns main clock,
// datapath 10x slower, transfers at main speed.
func exp1Clocks() Clocks { return Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1} }

// exp2Clocks: all clocks at 300 ns.
func exp2Clocks() Clocks { return Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1} }

func exp1Config() Config {
	return Config{
		Lib:     lib.Table1Library(),
		Style:   Style{MultiCycle: false},
		Clocks:  exp1Clocks(),
		MaxArea: chip.MOSISPackages()[1].ProjectArea(),
		Perf:    stats.Constraint{Bound: 30000, MinProb: 1},
		Delay:   stats.Constraint{Bound: 30000, MinProb: 0.8},
	}
}

func exp2Config() Config {
	c := exp1Config()
	c.Style = Style{MultiCycle: true}
	c.Clocks = exp2Clocks()
	c.Perf = stats.Constraint{Bound: 20000, MinProb: 1}
	return c
}

func TestClocksValidate(t *testing.T) {
	if err := exp1Clocks().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Clocks{
		{MainNS: 0, DatapathMult: 1, TransferMult: 1},
		{MainNS: 300, DatapathMult: 0, TransferMult: 1},
		{MainNS: 300, DatapathMult: 1, TransferMult: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid clocks accepted: %+v", c)
		}
	}
	if got := exp1Clocks().DatapathNS(); got != 3000 {
		t.Fatalf("DatapathNS = %v", got)
	}
	if got := exp1Clocks().TransferNS(); got != 300 {
		t.Fatalf("TransferNS = %v", got)
	}
}

func TestOpCyclesSingleCycleRejectsSlowModules(t *testing.T) {
	l := lib.Table1Library()
	ops := []dfg.Op{dfg.OpMul}
	cycles := make([]int, len(ops))
	mul3 := l.ModulesFor(dfg.OpMul)[2] // 7370 ns
	set := lib.ModuleSet{dfg.OpMul: mul3}
	if opCycles(set, ops, Style{MultiCycle: false}, 3000, cycles) {
		t.Fatal("mul3 must not fit a 3000 ns single-cycle datapath")
	}
	mul2 := l.ModulesFor(dfg.OpMul)[1] // 2950 ns
	ok := opCycles(lib.ModuleSet{dfg.OpMul: mul2}, ops, Style{MultiCycle: false}, 3000, cycles)
	if !ok || cycles[0] != 1 {
		t.Fatalf("mul2 single-cycle = %v ok=%v", cycles, ok)
	}
}

func TestOpCyclesMultiCycle(t *testing.T) {
	l := lib.Table1Library()
	set := lib.ModuleSet{
		dfg.OpMul: l.ModulesFor(dfg.OpMul)[1], // 2950 -> 10 cycles @300
		dfg.OpAdd: l.ModulesFor(dfg.OpAdd)[0], // 34 -> 1 cycle
	}
	ops := []dfg.Op{dfg.OpAdd, dfg.OpMul}
	cycles := make([]int, len(ops))
	if !opCycles(set, ops, Style{MultiCycle: true}, 300, cycles) {
		t.Fatal("multi-cycle must accept any module")
	}
	if cycles[1] != 10 || cycles[0] != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
}

func TestPredictARFilterExp1(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	res, err := Predict(g, exp1Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 || len(res.Designs) == 0 {
		t.Fatalf("no designs: %+v", res)
	}
	// Paper Table 3: ~111 predictions for the single partition; we expect
	// the same order of magnitude (tens to low hundreds).
	if res.Total < 20 || res.Total > 400 {
		t.Fatalf("Total = %d, out of Table-3 magnitude", res.Total)
	}
	// All retained designs are feasible (pruning on) and within constraints.
	cfg := exp1Config()
	for _, d := range res.Designs {
		if !Feasible(d, cfg) {
			t.Fatalf("retained infeasible design %+v", d)
		}
		if d.II < 1 || d.Latency < d.II && d.Style == NonPipelined {
			t.Fatalf("bad II/latency: %+v", d)
		}
		if !d.Area.Valid() || d.Area.ML <= 0 {
			t.Fatalf("bad area: %v", d.Area)
		}
	}
}

func TestPredictExp2LargerSpace(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	r1, err := Predict(g, exp1Config())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Predict(g, exp2Config())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Tables 3 vs 5: multi-cycle style explores a much larger space
	// (111 -> 656 for one partition).
	if r2.Total <= r1.Total*2 {
		t.Fatalf("multi-cycle space (%d) should be much larger than single-cycle (%d)",
			r2.Total, r1.Total)
	}
}

func TestPredictDesignsSortedFastestFirst(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	res, err := Predict(g, exp2Config())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Designs); i++ {
		a, b := res.Designs[i-1], res.Designs[i]
		if a.II > b.II {
			t.Fatalf("designs not sorted by II: %d then %d", a.II, b.II)
		}
		if a.II == b.II && a.Latency > b.Latency {
			t.Fatalf("ties not sorted by latency")
		}
	}
}

func TestPredictKeepAllLargerThanPruned(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	cfg := exp1Config()
	pruned, err := Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.KeepAll = true
	all, err := Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Designs) <= len(pruned.Designs) {
		t.Fatalf("KeepAll (%d) must retain more than pruned (%d)",
			len(all.Designs), len(pruned.Designs))
	}
	if all.Total != pruned.Total {
		t.Fatalf("Total must not depend on pruning: %d vs %d", all.Total, pruned.Total)
	}
}

func TestPredictParetoNoDominated(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	res, err := Predict(g, exp1Config())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Designs {
		for j, e := range res.Designs {
			if i == j {
				continue
			}
			if e.II <= d.II && e.Latency <= d.Latency && e.Area.ML <= d.Area.ML &&
				(e.II < d.II || e.Latency < d.Latency || e.Area.ML < d.Area.ML) {
				t.Fatalf("design %d dominated by %d", i, j)
			}
		}
	}
}

func TestPredictNonPipelinedIIEqualsLatency(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	res, err := Predict(g, exp1Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Designs {
		switch d.Style {
		case NonPipelined:
			if d.II != d.Latency || d.Stages != 1 {
				t.Fatalf("non-pipelined invariant broken: %+v", d)
			}
		case Pipelined:
			if d.II >= d.Latency {
				t.Fatalf("pipelined design without II < latency: %+v", d)
			}
			if d.Stages < 2 {
				t.Fatalf("pipelined with %d stage(s)", d.Stages)
			}
		}
	}
}

func TestPredictClockNearPaperValues(t *testing.T) {
	// Paper Tables 4/6 report adjusted clocks of 308-400 ns for a 300 ns
	// main clock. Check overhead stays in the 5-110 ns band.
	g := dfg.ARLatticeFilter(16)
	res, err := Predict(g, exp1Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Designs {
		clk := d.AdjustedClockNS(exp1Clocks()).ML
		if clk < 305 || clk > 410 {
			t.Fatalf("adjusted clock %v ns out of band for %s II %d latency %d", clk, d.ModuleSet.ID(), d.II, d.Latency)
		}
	}
}

func TestPredictFUAllocationWithinCounts(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	res, err := Predict(g, exp2Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Designs {
		if d.FUs[dfg.OpMul] < 1 || d.FUs[dfg.OpMul] > 16 {
			t.Fatalf("mul allocation %d out of range", d.FUs[dfg.OpMul])
		}
		if d.FUs[dfg.OpAdd] < 1 || d.FUs[dfg.OpAdd] > 12 {
			t.Fatalf("add allocation %d out of range", d.FUs[dfg.OpAdd])
		}
	}
}

func TestPredictErrors(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	if _, err := Predict(g, Config{}); err == nil {
		t.Fatal("nil library accepted")
	}
	cfg := exp1Config()
	cfg.Clocks.MainNS = 0
	if _, err := Predict(g, cfg); err == nil {
		t.Fatal("bad clocks accepted")
	}
	empty := dfg.New("empty")
	if _, err := Predict(empty, exp1Config()); err == nil {
		t.Fatal("empty graph accepted")
	}
	div := dfg.New("div")
	in := div.AddNode("in", dfg.OpInput, 16)
	d := div.AddNode("d", dfg.OpDiv, 16)
	div.MustConnect(in, d)
	if _, err := Predict(div, exp1Config()); err == nil {
		t.Fatal("op without library module accepted")
	}
}

func TestPredictTestabilityOverhead(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	base := exp2Config()
	scan := exp2Config()
	scan.Style.Testability = true
	rb, err := Predict(g, base)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Predict(g, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Designs) == 0 || len(rs.Designs) == 0 {
		t.Fatal("no designs")
	}
	// Compare the fastest design of each: scan version must be larger and
	// have more clock overhead.
	b, s := rb.Designs[0], rs.Designs[0]
	if s.Area.ML <= b.Area.ML-1e-9 && s.ClockOverhead.ML <= b.ClockOverhead.ML {
		t.Fatalf("testability added no overhead: %v vs %v", s.Area.ML, b.Area.ML)
	}
	if s.ClockOverhead.ML < b.ClockOverhead.ML+scanClockOverhead-1e-6 {
		t.Fatalf("scan clock overhead missing: %v vs %v", s.ClockOverhead.ML, b.ClockOverhead.ML)
	}
}

func TestPredictMemoryBandwidthRecorded(t *testing.T) {
	g := dfg.New("withmem")
	in := g.AddNode("in", dfg.OpInput, 16)
	rd := g.AddMemNode("rd", dfg.OpMemRd, 16, "MA")
	a := g.AddNode("a", dfg.OpAdd, 16)
	wr := g.AddMemNode("wr", dfg.OpMemWr, 16, "MA")
	g.MustConnect(in, a)
	g.MustConnect(rd, a)
	g.MustConnect(a, wr)
	res, err := Predict(g, exp2Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Designs) == 0 {
		t.Fatal("no designs")
	}
	for _, d := range res.Designs {
		if d.MemBits["MA"] != 32 { // one read + one write of 16 bits
			t.Fatalf("MemBits = %v", d.MemBits)
		}
	}
}

func TestDesignUnitHelpers(t *testing.T) {
	d := Design{II: 3, Latency: 6}
	c := exp1Clocks()
	if d.IIMainCycles(c) != 30 || d.LatencyMainCycles(c) != 60 {
		t.Fatalf("main-cycle conversion wrong: %d / %d", d.IIMainCycles(c), d.LatencyMainCycles(c))
	}
	d.ClockOverhead = stats.Exact(10)
	if got := d.AdjustedClockNS(c).ML; got != 310 {
		t.Fatalf("adjusted clock = %v", got)
	}
	if got := d.PerfNS(c).ML; got != 310*30 {
		t.Fatalf("PerfNS = %v", got)
	}
}

func TestStyleRestrictions(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	cfg := exp2Config()
	cfg.Style.NoPipelined = true
	res, err := Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Designs {
		if d.Style == Pipelined {
			t.Fatal("pipelined design despite NoPipelined")
		}
	}
	cfg = exp2Config()
	cfg.Style.NoNonPipelined = true
	res, err = Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Designs {
		if d.Style == NonPipelined {
			t.Fatal("non-pipelined design despite NoNonPipelined")
		}
	}
}

func TestForceDirectedSweep(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	cfg := exp2Config()
	cfg.ForceDirected = true
	cfg.MaxII = 40 // keep the O(frames^2) FDS sweep quick in tests
	res, err := Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 || len(res.Designs) == 0 {
		t.Fatalf("FDS sweep empty: %+v", res)
	}
	for _, d := range res.Designs {
		if d.Style == NonPipelined && (d.II != d.Latency || d.Stages != 1) {
			t.Fatalf("FDS non-pipelined invariant broken: %+v", d)
		}
	}
}

func TestForceDirectedFindsComparableDesigns(t *testing.T) {
	// FDS and list+repair must land in the same area/II ballpark: compare
	// the cheapest design at the most serial frontier point of each.
	g := dfg.ARLatticeFilter(16)
	base := exp2Config()
	base.MaxII = 40
	fds := exp2Config()
	fds.ForceDirected = true
	fds.MaxII = 40
	rb, err := Predict(g, base)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Predict(g, fds)
	if err != nil {
		t.Fatal(err)
	}
	cheapest := func(r Result) float64 {
		best := math.Inf(1)
		for _, d := range r.Designs {
			if d.Area.ML < best {
				best = d.Area.ML
			}
		}
		return best
	}
	cb, cf := cheapest(rb), cheapest(rf)
	if cf > cb*1.6 || cb > cf*1.6 {
		t.Fatalf("schedulers diverge: list %v vs fds %v", cb, cf)
	}
}

// TestPredictAllocs is the allocation gate of the compiled predictor: the
// experiment-2 AR-filter prediction allocates at most 2 objects per
// generated design point. Duplicates allocate nothing; a unique point
// pays for its dedup key and its FUs map, and the per-graph and
// per-module-set compilation is spread over all points.
func TestPredictAllocs(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	cfg := exp2Config()
	var res Result
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		if res, err = Predict(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	perDesign := allocs / float64(res.Total)
	t.Logf("%.0f allocs per prediction, %d designs: %.2f allocs per design", allocs, res.Total, perDesign)
	if perDesign > 2 {
		t.Fatalf("%.2f allocs per design, want <= 2", perDesign)
	}
}
