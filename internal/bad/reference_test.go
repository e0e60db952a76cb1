package bad

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chop/internal/alloc"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/sched"
)

// refPredict is Predict without timing classes: every usable module set
// is retimed, scheduled, deduplicated and costed on its own, with nothing
// shared between sets. Schedules come from the map-based adapters
// (sched.ListSchedule, sched.PipelinedSchedule, sched.ForceDirected),
// which compile the graph afresh per call, and allocation estimates from
// alloc.Estimate; the level-1 Pareto front is a plain filter over every
// feasible point. Only the per-point cost formulas (price) and the final
// ordering (sortDesigns) are Predict's own.
func refPredict(t *testing.T, g *dfg.Graph, cfg Config) Result {
	t.Helper()
	if cfg.MaxRepair <= 0 {
		cfg.MaxRepair = 6
	}
	ops := g.FUOps()
	sets, err := cfg.Lib.EnumerateSets(ops)
	if err != nil {
		t.Fatal(err)
	}
	count := make([]int, len(ops))
	for _, n := range g.Nodes {
		for op, o := range ops {
			if n.Op == o {
				count[op]++
			}
		}
	}
	dpNS := cfg.Clocks.DatapathNS()
	var res Result
	var unique []Design // every set's unique points, in arrival order
	var fusOf [][]int   // their allocations, per op
	for _, set := range sets {
		cycles := map[dfg.Op]int{}
		usable := true
		for o, m := range set {
			switch {
			case cfg.Style.MultiCycle:
				cycles[o] = max(int(math.Ceil(m.Delay/dpNS)), 1)
			case m.Delay > dpNS:
				usable = false
			default:
				cycles[o] = 1
			}
		}
		if !usable {
			continue
		}
		mods := make([]lib.Module, len(ops))
		for op, o := range ops {
			mods[op] = set[o]
		}
		p := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }}
		minLat, err := sched.CriticalCycles(p)
		if err != nil {
			t.Fatal(err)
		}
		serial, maxDur := 0, 1
		for _, n := range g.Nodes {
			if n.Op.NeedsFU() {
				serial += cycles[n.Op]
				maxDur = max(maxDur, cycles[n.Op])
			}
		}
		serial = max(serial, 1)
		maxII := cfg.MaxII
		if maxII == 0 {
			if cfg.Perf.Bound > 0 {
				maxII = int(cfg.Perf.Bound / dpNS)
			} else {
				maxII = serial
			}
		}
		if maxII < 1 {
			continue
		}

		seen := map[string]bool{}
		record := func(style DesignStyle, ii int, r sched.Result, fus map[dfg.Op]int) {
			res.Total++
			dense := make([]int, len(ops))
			for op, o := range ops {
				dense[op] = fus[o]
			}
			key := fmt.Sprint(style, ii, r.Latency, dense)
			if seen[key] {
				return
			}
			seen[key] = true
			res.Unique++
			pt := point{style: style, ii: ii, latency: r.Latency,
				al: alloc.Estimate(p, r, fus, ii)}
			unique = append(unique, price(cfg, set, mods, count, dense, &pt))
			fusOf = append(fusOf, dense)
		}
		bump := func(fus map[dfg.Op]int) {
			worst, worstPressure := dfg.Op(""), -1.0
			for op, o := range ops {
				n := fus[o]
				if n >= count[op] {
					continue
				}
				if pr := float64(count[op]*cycles[o]) / float64(n); pr > worstPressure {
					worst, worstPressure = o, pr
				}
			}
			if worst != "" {
				fus[worst]++
			}
		}
		if !cfg.Style.NoNonPipelined {
			for L := minLat; L <= min(serial, maxII); L++ {
				if cfg.ForceDirected {
					r, fus, ok, err := sched.ForceDirected(p, L)
					if err == nil && ok {
						record(NonPipelined, r.Latency, r, fus)
					}
					continue
				}
				fus := sched.MinFUs(p, L)
				for attempt := 0; ; attempt++ {
					p.Limit = fus
					r, err := sched.ListSchedule(p)
					if err != nil {
						break
					}
					record(NonPipelined, r.Latency, r, fus)
					if r.Latency <= L || attempt >= cfg.MaxRepair {
						break
					}
					bump(fus)
				}
			}
		}
		if !cfg.Style.NoPipelined {
			for ii := maxDur; ii <= maxII && ii < minLat; ii++ {
				fus := sched.MinFUs(p, ii)
				for attempt := 0; ; attempt++ {
					p.Limit = fus
					r, ok, err := sched.PipelinedSchedule(p, ii)
					if err != nil {
						break
					}
					if ok {
						record(Pipelined, ii, r, fus)
						break
					}
					if attempt >= cfg.MaxRepair {
						break
					}
					bump(fus)
				}
			}
		}
	}

	// Level-1 pruning: keep the feasible points no feasible point is
	// superior to, in arrival order.
	var feasible []int
	for i, d := range unique {
		if cfg.KeepAll || Feasible(d, cfg) {
			feasible = append(feasible, i)
		}
	}
	if !cfg.KeepAll {
		res.Designs = []Design{}
	}
	for _, i := range feasible {
		inferior := false
		for _, j := range feasible {
			if !cfg.KeepAll && superior(&unique[j], &unique[i]) {
				inferior = true
				break
			}
		}
		if inferior {
			continue
		}
		d := unique[i]
		d.FUs = map[dfg.Op]int{}
		for op, n := range fusOf[i] {
			if n > 0 {
				d.FUs[ops[op]] = n
			}
		}
		for _, n := range g.Nodes {
			if n.Op.IsMemory() {
				if d.MemBits == nil {
					d.MemBits = map[string]int{}
				}
				d.MemBits[n.Mem] += n.Width
			}
		}
		res.Designs = append(res.Designs, d)
	}
	sortDesigns(res.Designs)
	for _, d := range res.Designs {
		if Feasible(d, cfg) {
			res.Feasible++
		}
	}
	return res
}

// classLibrary is a library whose module sets interleave timing classes
// in EnumerateSets order: per op, two modules with equal cycle counts at
// a 300 ns datapath cycle but different area and power, a slower one, and
// for mul one too slow for a single-cycle datapath of 1000 ns.
func classLibrary() *lib.Library {
	return &lib.Library{
		Name: "classes",
		Modules: []lib.Module{
			{Name: "addA", Op: dfg.OpAdd, Width: 16, Area: 4200, Delay: 34, Power: 12},
			{Name: "addB", Op: dfg.OpAdd, Width: 16, Area: 2900, Delay: 120, Power: 8},
			{Name: "addC", Op: dfg.OpAdd, Width: 16, Area: 1200, Delay: 480, Power: 3},
			{Name: "subA", Op: dfg.OpSub, Width: 16, Area: 4400, Delay: 36, Power: 11},
			{Name: "subB", Op: dfg.OpSub, Width: 16, Area: 3100, Delay: 250, Power: 7.5},
			{Name: "mulA", Op: dfg.OpMul, Width: 16, Area: 49000, Delay: 375, Power: 110},
			{Name: "mulB", Op: dfg.OpMul, Width: 16, Area: 31000, Delay: 590, Power: 70},
			{Name: "mulC", Op: dfg.OpMul, Width: 16, Area: 9800, Delay: 2950, Power: 25},
		},
		Register: lib.Module{Name: "register", Width: 1, Area: 31, Delay: 5, Power: 0.1},
		Mux:      lib.Module{Name: "mux", Width: 1, Area: 18, Delay: 4, Power: 0.05},
	}
}

// resultDigest hashes every field of r with the golden hasher.
func resultDigest(r Result) string {
	gh := &goldenHasher{h: sha256.New()}
	gh.result(r)
	return hex.EncodeToString(gh.h.Sum(nil))
}

// requireSameResult fails unless got equals want field by field.
func requireSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if resultDigest(got) == resultDigest(want) {
		return
	}
	if got.Total != want.Total || got.Unique != want.Unique || got.Feasible != want.Feasible ||
		len(got.Designs) != len(want.Designs) {
		t.Fatalf("%s: total/unique/feasible/designs %d/%d/%d/%d, reference %d/%d/%d/%d", label,
			got.Total, got.Unique, got.Feasible, len(got.Designs),
			want.Total, want.Unique, want.Feasible, len(want.Designs))
	}
	for i := range want.Designs {
		if g, w := resultDigest(Result{Designs: got.Designs[i : i+1]}), resultDigest(Result{Designs: want.Designs[i : i+1]}); g != w {
			t.Fatalf("%s: design %d differs:\n got %+v\nwant %+v", label, i, got.Designs[i], want.Designs[i])
		}
	}
	t.Fatalf("%s: digests differ", label)
}

// TestPredictMatchesPerSetReference compares Predict, which schedules
// once per timing class, with the per-set reference on random graphs
// under libraries that interleave classes, in single- and multi-cycle
// styles, with and without level-1 pruning and with force-directed
// scheduling.
func TestPredictMatchesPerSetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	libs := []*lib.Library{classLibrary(), lib.ExtendedLibrary()}
	for iter := 0; iter < 150; iter++ {
		g := dfg.RandomDAG(rng.Int63(), 1+rng.Intn(3), 3+rng.Intn(10), 16)
		cfg := Config{
			Lib:     libs[iter%len(libs)],
			Clocks:  Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
			KeepAll: rng.Intn(2) == 0,
			MaxII:   rng.Intn(16),
		}
		if rng.Intn(2) == 0 {
			cfg.Style.MultiCycle = true
		} else {
			cfg.Clocks.DatapathMult = []int{2, 4, 10}[rng.Intn(3)]
		}
		if rng.Intn(4) == 0 {
			cfg.ForceDirected = true
		}
		if rng.Intn(2) == 0 {
			cfg.MaxArea = 40000 + rng.Float64()*200000
			cfg.Perf.Bound, cfg.Perf.MinProb = 1000+rng.Float64()*6000, 1
		}
		label := fmt.Sprintf("iter %d (%s, multi-cycle %v, dp %d, keep-all %v, fds %v, max-ii %d)",
			iter, cfg.Lib.Name, cfg.Style.MultiCycle, cfg.Clocks.DatapathMult,
			cfg.KeepAll, cfg.ForceDirected, cfg.MaxII)
		got, err := Predict(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameResult(t, label, refPredict(t, g, cfg), got)
	}
}

// TestTimingClassSchedulesOnce is the white-box check of the sharing: in
// experiment 1's single-cycle style, the AR filter's 6 usable module
// sets all give every op one cycle, so they form one timing class and
// the sweep runs the list and modulo schedulers exactly as often as for
// a library cut down to one of those sets, while counting 6 times the
// points.
func TestTimingClassSchedulesOnce(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	sweepOf := func(cfg Config) *sweep {
		sets, err := cfg.Lib.EnumerateSets(g.FUOps())
		if err != nil {
			t.Fatal(err)
		}
		w := newSweep(g, g.FUOps(), cfg)
		if err := w.run(sets, nil); err != nil {
			t.Fatal(err)
		}
		return w
	}
	full := exp1Config()
	cut := exp1Config()
	cut.Lib = lib.Table1Library()
	cut.Lib.Modules = []lib.Module{cut.Lib.Modules[1], cut.Lib.Modules[4]} // add2, mul2
	all, one := sweepOf(full), sweepOf(cut)
	if len(all.classes) != 1 || len(one.classes) != 1 {
		t.Fatalf("timing classes: %d full, %d cut, want 1 each", len(all.classes), len(one.classes))
	}
	if all.runs == 0 || all.runs != one.runs {
		t.Fatalf("scheduler runs: %d full, %d cut, want equal and non-zero", all.runs, one.runs)
	}
	if all.res.Total != 6*one.res.Total || all.res.Unique != 6*one.res.Unique {
		t.Fatalf("points: %d/%d full, %d/%d cut, want 6x", all.res.Total, all.res.Unique,
			one.res.Total, one.res.Unique)
	}
}
