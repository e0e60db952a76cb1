package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"strconv"
	"time"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/experiments"
	"chop/internal/lib"
)

// problem is one closed-loop request: the client sends the next problem
// only after this one returns.
type problem interface {
	name() string
	// describe writes the generated inputs to the stream digest.
	describe(w io.Writer)
	// run makes the library calls, timing only them, then checks the
	// result and digests it.
	run(tr *tracer) outcome
}

// outcome is what one problem leaves behind.
type outcome struct {
	latency time.Duration // CPU time of the library calls, without checks
	trials  int           // integration trials the search ran
	fails   []string      // failed checks; a library error is one
	digest  []byte        // canonical result, compared when the problem runs again
}

// workload builds the problem stream of one named workload from a seed and
// the run's length in seconds, which sets how many seeded problems follow
// the paper's: one pass over the stream takes about that long on a 2-vCPU
// x86-64 virtual machine with go1.24. A run measures exactly one pass, so
// it does the same work on any machine.
type workload struct {
	name  string
	build func(seed int64, seconds int) []problem
}

var workloads = []workload{
	{"tables", buildTables},
	{"explore", buildExplore},
	{"session", buildSession},
}

// tableConfigs is the (partitions, package) schedule of Tables 4 and 6.
var tableConfigs = []struct{ parts, pkg int }{{1, 2}, {2, 2}, {2, 1}, {3, 2}}

var heuristics = []core.Heuristic{core.Enumeration, core.Iterative}

// tableSiblingsPerSecond is how many seeded siblings one second of the
// run holds, after the 1 s the 16 paper problems take.
const tableSiblingsPerSecond = 100

// buildTables is the paper's 16 Table 3-6 problems followed by seeded
// siblings: the settings and packages of an experiment-1 paper problem on
// a random graph of the AR filter's size (4 inputs, 28 operations),
// cycling through the eight experiment-1 problems. Experiment 2 stays in
// the stream through its eight paper problems only: its multi-cycle sweep
// costs ten times more, so a run would hold too few of its siblings for a
// steady p90 from seed to seed.
func buildTables(seed int64, seconds int) []problem {
	var ps []problem
	for _, exp := range []int{1, 2} {
		e := experiments.New(exp)
		for _, tc := range tableConfigs {
			for _, h := range heuristics {
				name := fmt.Sprintf("exp%d/%dp/pkg%d/%s", exp, tc.parts, tc.pkg, h)
				w := tableWants[name]
				ps = append(ps, &solve{label: name, p: e.Partitioning(tc.parts, tc.pkg), cfg: e.Cfg, h: h, want: &w})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := siblingConfig(experiments.New(1).Cfg)
	for i := 0; i < tableSiblingsPerSecond*seconds; i++ {
		tc := tableConfigs[i%len(tableConfigs)]
		h := heuristics[(i/len(tableConfigs))%len(heuristics)]
		g := dfg.RandomDAG(rng.Int63(), 4, 28, 16)
		ps = append(ps, &solve{
			label: fmt.Sprintf("sibling/%s/exp1/%dp/pkg%d/%s", g.Name, tc.parts, tc.pkg, h),
			p:     partitioning(g, tc.parts, tc.pkg), cfg: cfg, h: h,
		})
	}
	return ps
}

// exploreSiblingsPerSecond is how many seeded explorations one second of
// the run holds, after the 5 s Figures 7 and 8 take. Short runs still get
// minExploreSiblings, enough for a p90 with ten samples beyond it.
const exploreSiblingsPerSecond, minExploreSiblings = 75, 100

// exploreShapes are the random graphs the seeded explorations cycle
// through: inputs, operations and partitions. Each costs about 8 ms and a
// few hundred trials, over 85% of it in the search; mixing three shapes
// smooths the lumps that whole trial counts leave in one shape's latency
// distribution.
var exploreShapes = []struct{ in, ops, parts int }{{3, 8, 2}, {3, 6, 3}, {2, 6, 3}}

// buildExplore is the paper's exploration mode: pruning off and every
// point recorded. Figure 7 (experiment 1, 1-3 partitions) and Figure 8
// (experiment 2, 1 partition) come first, then seeded explorations of
// small random graphs under experiment 1.
func buildExplore(seed int64, seconds int) []problem {
	var ps []problem
	for _, f := range []struct {
		fig, exp int
		parts    []int
	}{{7, 1, []int{1, 2, 3}}, {8, 2, []int{1}}} {
		e := experiments.New(f.exp)
		cfg := e.Cfg
		cfg.KeepAll = true
		for _, n := range f.parts {
			name := fmt.Sprintf("fig%d/%dp", f.fig, n)
			w := figureWants[name]
			ps = append(ps, &solve{label: name, p: e.Partitioning(n, 2), cfg: cfg, h: core.Enumeration, want: &w})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := siblingConfig(experiments.New(1).Cfg)
	cfg.KeepAll = true
	for i := 0; i < max(minExploreSiblings, exploreSiblingsPerSecond*seconds); i++ {
		sh := exploreShapes[i%len(exploreShapes)]
		g := dfg.RandomDAG(rng.Int63(), sh.in, sh.ops, 16)
		ps = append(ps, &solve{label: fmt.Sprintf("explore/%s/%dp", g.Name, sh.parts), p: partitioning(g, sh.parts, 2), cfg: cfg, h: core.Enumeration})
	}
	return ps
}

// partitioning splits g by levels onto n chips of Table-2 package pkg, as
// experiments.Partitioning does for the AR filter.
func partitioning(g *dfg.Graph, n, pkg int) *core.Partitioning {
	chips := make([]int, n)
	for i := range chips {
		chips[i] = i
	}
	return &core.Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, n),
		PartChip: chips,
		Chips:    chip.NewUniformSet(n, chip.MOSISPackages()[pkg-1], 4),
	}
}

// siblingConfig keeps a paper problem's style, clocks and constraints but
// swaps in Table 1 plus a subtractor: RandomDAG draws subtractions, which
// the paper's library cannot implement.
func siblingConfig(cfg core.Config) core.Config {
	cfg.Lib = lib.ExtendedLibrary()
	return cfg
}

// solve is one partitioning problem: BAD on every partition, then the
// search. Paper problems carry the exact numbers they must reproduce.
type solve struct {
	label string
	p     *core.Partitioning
	cfg   core.Config
	h     core.Heuristic
	want  *want
}

func (s *solve) name() string { return s.label }

func (s *solve) describe(w io.Writer) {
	fmt.Fprintf(w, "solve|%s|%s|%s|%+v|%+v|%+v|%t|", s.label, s.h, s.cfg.Lib.Name, s.cfg.Style, s.cfg.Clocks, s.cfg.Constraints, s.cfg.KeepAll)
	writePartitioning(w, s.p)
}

func (s *solve) run(tr *tracer) outcome {
	cfg := s.cfg
	cfg.Workers = 1
	cfg.Metrics = tr.metrics()
	var preds []bad.Result
	var res core.SearchResult
	var err error
	start := cpuTime()
	tr.call(layerBAD, func() {
		preds, err = core.PredictPartitions(s.p, cfg)
	})
	if err == nil {
		tr.countBAD(preds)
		tr.call(layerSearch, func() {
			res, err = core.Search(s.p, cfg, preds, s.h)
		})
		tr.countSearch(res)
	}
	o := outcome{latency: cpuTime() - start, trials: res.Trials}
	if err != nil {
		o.fails = []string{err.Error()}
		return o
	}
	if s.want != nil {
		o.fails = checkWant(*s.want, preds, res)
	}
	o.fails = append(o.fails, checkBest(s.p, cfg.Constraints, res)...)
	o.digest = digestResult(preds, res)
	return o
}

// digestResult hashes every number a caller of the library could read
// from one problem's predictions and search result.
func digestResult(preds []bad.Result, res core.SearchResult) []byte {
	d := newDigest()
	for _, r := range preds {
		d.ints(r.Total, r.Unique, r.Feasible, len(r.Designs))
		for _, ds := range r.Designs {
			d.ints(int(ds.Style), ds.II, ds.Latency, ds.Stages, ds.RegBits, ds.Mux1Bit)
			d.floats(ds.Area.Lo, ds.Area.ML, ds.Area.Hi)
		}
	}
	d.ints(res.Trials, res.FeasibleTrials, len(res.Best), len(res.Space))
	for _, g := range res.Best {
		d.ints(g.IIMain, g.DelayMain)
		d.floats(g.Clock.ML, g.PerfNS.Hi, g.DelayNS.Hi, g.Power.ML)
		d.ints(g.ChipPins...)
		for _, a := range g.ChipArea {
			d.floats(a.Hi)
		}
	}
	for _, sp := range res.Space {
		d.floats(sp.AreaML, sp.DelayNS)
		d.ints(sp.IIMain)
		if sp.Feasible {
			d.ints(1)
		}
	}
	return d.sum()
}

// digest accumulates numbers in a fixed textual form.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		d.buf = strconv.AppendInt(append(d.buf[:0], 'i'), int64(x), 10)
		d.h.Write(d.buf)
	}
}

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.buf = strconv.AppendFloat(append(d.buf[:0], 'f'), x, 'g', -1, 64)
		d.h.Write(d.buf)
	}
}

func (d *digest) sum() []byte { return d.h.Sum(nil) }

// writePartitioning writes a partitioning's graph, partitions, chips and
// memory to the stream digest.
func writePartitioning(w io.Writer, p *core.Partitioning) {
	fmt.Fprintf(w, "graph|%s|", p.Graph.Name)
	for _, n := range p.Graph.Nodes {
		fmt.Fprintf(w, "%s/%d/%s;", n.Op, n.Width, n.Mem)
	}
	for _, e := range p.Graph.Edges {
		fmt.Fprintf(w, "%d>%d;", e.From, e.To)
	}
	fmt.Fprintf(w, "|parts|%v|%v|chips|%+v|mem|%+v\n", p.Parts, p.PartChip, p.Chips.Chips, p.Mem)
}
