package bad

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"strconv"
	"testing"

	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/stats"
)

// predictGolden is the digest of every field of every Design, plus the
// Total/Unique/Feasible counters, that Predict returns over the golden
// corpus below. It pins the predictor's observable behaviour bit for bit,
// so any restructuring of the sweep, the schedulers or the allocation
// estimate must reproduce it exactly.
const predictGolden = "ade31ada16ad88c772385265c87cfedbeb94ea38f6577500dd31010378c842db"

// goldenHasher feeds values into a SHA-256 in a fixed, type-tagged
// textual form; floats go in as their exact bit patterns.
type goldenHasher struct {
	h   hash.Hash
	buf []byte
}

func (g *goldenHasher) int(x int) {
	g.buf = strconv.AppendInt(append(g.buf[:0], 'i'), int64(x), 10)
	g.h.Write(g.buf)
}

func (g *goldenHasher) float(x float64) {
	g.buf = strconv.AppendUint(append(g.buf[:0], 'f'), math.Float64bits(x), 16)
	g.h.Write(g.buf)
}

func (g *goldenHasher) str(s string) {
	g.int(len(s))
	g.h.Write([]byte(s))
}

func (g *goldenHasher) triplet(t stats.Triplet) {
	g.float(t.Lo)
	g.float(t.ML)
	g.float(t.Hi)
}

// design hashes every field of one design; maps go in sorted by key.
func (g *goldenHasher) design(d Design) {
	g.int(int(d.Style))
	g.str(d.ModuleSet.ID())
	ops := make([]string, 0, len(d.FUs))
	for op := range d.FUs {
		ops = append(ops, string(op))
	}
	sort.Strings(ops)
	g.int(len(ops))
	for _, op := range ops {
		g.str(op)
		g.int(d.FUs[dfg.Op(op)])
	}
	g.int(d.II)
	g.int(d.Latency)
	g.int(d.Stages)
	g.int(d.RegBits)
	g.int(d.Mux1Bit)
	g.triplet(d.Area)
	g.triplet(d.ClockOverhead)
	g.triplet(d.Power)
	mems := make([]string, 0, len(d.MemBits))
	for m := range d.MemBits {
		mems = append(mems, m)
	}
	sort.Strings(mems)
	g.int(len(mems))
	for _, m := range mems {
		g.str(m)
		g.int(d.MemBits[m])
	}
}

func (g *goldenHasher) result(r Result) {
	g.int(r.Total)
	g.int(r.Unique)
	g.int(r.Feasible)
	g.int(len(r.Designs))
	for _, d := range r.Designs {
		g.design(d)
	}
}

// goldenMemGraph is a small behavior with two memory blocks, so the
// corpus covers MemBits and zero-duration memory accesses between FU ops.
func goldenMemGraph() *dfg.Graph {
	g := dfg.New("golden-mem")
	in := g.AddNode("in", dfg.OpInput, 16)
	r1 := g.AddMemNode("r1", dfg.OpMemRd, 16, "MA")
	r2 := g.AddMemNode("r2", dfg.OpMemRd, 16, "MB")
	m := g.AddNode("m", dfg.OpMul, 16)
	a := g.AddNode("a", dfg.OpAdd, 16)
	b := g.AddNode("b", dfg.OpAdd, 16)
	w := g.AddMemNode("w", dfg.OpMemWr, 16, "MA")
	out := g.AddNode("out", dfg.OpOutput, 16)
	g.MustConnect(in, m)
	g.MustConnect(r1, m)
	g.MustConnect(m, a)
	g.MustConnect(r2, a)
	g.MustConnect(a, w)
	g.MustConnect(a, b)
	g.MustConnect(in, b)
	g.MustConnect(b, out)
	return g
}

type goldenCase struct {
	name string
	g    *dfg.Graph
	cfg  Config
}

// goldenCorpus covers both experiments with and without level-1 pruning,
// force-directed scheduling, testability, single-style sweeps, an explicit
// II cap, a memory graph and random graphs under the extended library.
func goldenCorpus() []goldenCase {
	ar := dfg.ARLatticeFilter(16)
	var cs []goldenCase
	add := func(name string, g *dfg.Graph, cfg Config) {
		cs = append(cs, goldenCase{name, g, cfg})
	}
	for _, keep := range []bool{false, true} {
		c1, c2 := exp1Config(), exp2Config()
		c1.KeepAll, c2.KeepAll = keep, keep
		add("exp1", ar, c1)
		add("exp2", ar, c2)
	}
	fd := exp2Config()
	fd.ForceDirected = true
	fd.MaxII = 40
	add("fds", ar, fd)
	tb := exp2Config()
	tb.Style.Testability = true
	add("testability", ar, tb)
	np := exp2Config()
	np.Style.NoPipelined = true
	add("no-pipelined", ar, np)
	nn := exp2Config()
	nn.Style.NoNonPipelined = true
	nn.KeepAll = true
	add("no-non-pipelined", ar, nn)
	mx := exp2Config()
	mx.MaxII = 25
	mx.Perf = stats.Constraint{}
	mx.KeepAll = true
	add("max-ii", ar, mx)
	mg := exp2Config()
	mg.KeepAll = true
	add("mem", goldenMemGraph(), mg)
	for i := 0; i < 20; i++ {
		cfg := exp1Config()
		if i%2 == 1 {
			cfg = exp2Config()
			cfg.MaxII = 30
		}
		cfg.Lib = lib.ExtendedLibrary()
		cfg.KeepAll = i%4 < 2
		add("random", dfg.RandomDAG(int64(100+i), 3, 6+i%7, 16), cfg)
	}
	return cs
}

// TestPredictGolden pins Predict over the golden corpus to the digest
// recorded before BAD was compiled into per-graph, per-module-set and
// per-design layers.
func TestPredictGolden(t *testing.T) {
	gh := &goldenHasher{h: sha256.New()}
	for _, c := range goldenCorpus() {
		r, err := Predict(c.g, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gh.str(c.name)
		gh.result(r)
	}
	if got := hex.EncodeToString(gh.h.Sum(nil)); got != predictGolden {
		t.Fatalf("predict golden digest = %s, want %s", got, predictGolden)
	}
}

// TestPredictFractionalLibraryDeterministic predicts with a library whose
// areas and powers are not exactly representable (0.1, 0.2, 0.3, ...), so
// the FU area and power sums round differently in different orders. The
// predictor must sum in one fixed order: every run returns the same
// Result, bit for bit, or predictor-cache keys and byte-identical reports
// would drift from run to run.
func TestPredictFractionalLibraryDeterministic(t *testing.T) {
	l, err := lib.FromJSON([]byte(`{
		"name": "fractional",
		"modules": [
			{"name": "add", "op": "add", "width": 16, "area": 0.1, "delay": 30, "power": 0.1},
			{"name": "sub", "op": "sub", "width": 16, "area": 0.2, "delay": 30, "power": 0.2},
			{"name": "mul", "op": "mul", "width": 16, "area": 0.3, "delay": 250, "power": 0.3},
			{"name": "cmp", "op": "cmp", "width": 16, "area": 0.7, "delay": 20, "power": 0.7}
		],
		"register": {"name": "register", "width": 1, "area": 0.31, "delay": 5, "power": 0.01},
		"mux": {"name": "mux", "width": 1, "area": 0.18, "delay": 4, "power": 0.005}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	g := dfg.DiffEq(16)
	cfg := exp2Config()
	cfg.Lib = l
	cfg.KeepAll = true
	cfg.MaxII = 12
	var want string
	for run := 0; run < 50; run++ {
		r, err := Predict(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Designs) == 0 {
			t.Fatal("no designs")
		}
		gh := &goldenHasher{h: sha256.New()}
		gh.result(r)
		got := hex.EncodeToString(gh.h.Sum(nil))
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: result digest %s, want %s (run 0)", run, got, want)
		}
	}
}
