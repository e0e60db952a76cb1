package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/mem"
	"chop/internal/stats"
)

// integratorGolden is the digest of every field of every GlobalDesign the
// golden corpus below produces through DebugIntegrator.Eval. It pins the
// integrator's observable behaviour — verdicts, reason texts, schedules,
// transfer modules, areas, pins, clocks and power — bit for bit, so any
// restructuring of integrate must reproduce it exactly.
const integratorGolden = "efea8b9b1fb3e196fcefdbca35355f9330df02e201c83e325f959de7d3916621"

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

func (g *goldenHasher) ints(xs []int) {
	g.int(len(xs))
	for _, x := range xs {
		g.int(x)
	}
}

// design hashes every field of one integrated design (Choice is the
// input, so only its length goes in).
func (g *goldenHasher) design(d GlobalDesign) {
	g.int(len(d.Choice))
	g.int(d.IIMain)
	g.int(d.DelayMain)
	g.triplet(d.Clock)
	g.triplet(d.PerfNS)
	g.triplet(d.DelayNS)
	g.int(len(d.ChipArea))
	for _, a := range d.ChipArea {
		g.triplet(a)
	}
	g.ints(d.ChipPins)
	g.int(len(d.Modules))
	for _, m := range d.Modules {
		g.str(m.Task.Name)
		g.int(m.Task.FromPart)
		g.int(m.Task.ToPart)
		g.int(m.Task.FromChip)
		g.int(m.Task.ToChip)
		g.int(m.Task.Bits)
		g.int(m.Task.Values)
		g.int(m.Wait)
		g.int(m.Transfer)
		g.int(m.BufferBits)
		g.triplet(m.Area)
		g.triplet(m.CtrlDelay)
		g.int(m.Pins)
	}
	g.triplet(d.Power)
	if d.Feasible {
		g.int(1)
	} else {
		g.int(0)
	}
	g.str(d.Reason)
	g.int(int(d.ReasonCode))
	g.int(d.ReasonChip)
	g.ints(d.AreaViolations)
	g.int(len(d.Schedule))
	for _, s := range d.Schedule {
		g.str(s.Name)
		g.int(s.Start)
		g.int(s.Dur)
		g.ints(s.Chips)
	}
}

// goldenCase is one partitioning of the corpus with its configuration.
type goldenCase struct {
	name string
	p    *Partitioning
	cfg  Config
	// extra also evaluates every combination at the iterative heuristic's
	// candidate intervals above the combination's own, up to three.
	extra bool
}

// goldenCorpus is the integrator golden's input: Figure 7's three
// partitionings and Figure 8's, 20 seeded random partitionings under the
// extended library on both packages at both bus widths, the two-partition
// AR filter on pin-starved 64-pin chips under a power bound (no-pins,
// data-clash, pin-bandwidth and power rejections), mixed packages with
// three partitions sharing two chips, and two memory partitionings with a
// shared on-chip block (single and dual port) plus an off-chip one.
func goldenCorpus(t *testing.T) []goldenCase {
	var cs []goldenCase
	fig7 := exp1Config()
	fig7.KeepAll = true
	for n := 1; n <= 3; n++ {
		cs = append(cs, goldenCase{name: "fig7/" + strconv.Itoa(n) + "p", p: arPartitioning(t, n, 1), cfg: fig7})
	}
	fig8 := exp2Config()
	fig8.KeepAll = true
	cs = append(cs, goldenCase{name: "fig8/1p", p: arPartitioning(t, 1, 1), cfg: fig8})

	shapes := []struct{ in, ops, parts int }{{3, 8, 2}, {3, 6, 3}, {2, 6, 3}, {4, 10, 2}}
	for i := 0; i < 20; i++ {
		sh := shapes[i%len(shapes)]
		g := dfg.RandomDAG(int64(1000+i), sh.in, sh.ops, 16)
		pkg := i % 2
		cfg := exp1Config()
		cfg.Lib = lib.ExtendedLibrary()
		cfg.KeepAll = true
		if (i/2)%2 == 1 {
			cfg.MaxBusPins = 8
		}
		chips := make([]int, sh.parts)
		for c := range chips {
			chips[c] = c
		}
		p := &Partitioning{
			Graph:    g,
			Parts:    dfg.LevelPartitions(g, sh.parts),
			PartChip: chips,
			Chips:    chip.NewUniformSet(sh.parts, chip.MOSISPackages()[pkg], 4),
		}
		cs = append(cs, goldenCase{name: "rand/" + strconv.Itoa(i), p: p, cfg: cfg, extra: true})
	}
	for _, reserved := range []int{40, 56, 60} {
		cfg := exp1Config()
		cfg.KeepAll = true
		cfg.Constraints.Power = stats.Constraint{Bound: float64(reserved), MinProb: 0.5}
		g := dfg.ARLatticeFilter(16)
		p := &Partitioning{Graph: g, Parts: dfg.LevelPartitions(g, 2), PartChip: []int{0, 1},
			Chips: chip.NewUniformSet(2, chip.MOSISPackages()[0], reserved)}
		cs = append(cs, goldenCase{name: "pins/" + strconv.Itoa(reserved), p: p, cfg: cfg})
	}
	// Mixed packages (differing pins and pad delays), and three partitions
	// sharing two chips.
	slow := chip.MOSISPackages()[1]
	slow.Name, slow.PadDelay, slow.Width = "slow-84", 160, 400
	mixed := chip.Set{Chips: []chip.Chip{
		{Name: "a", Pkg: slow, ReservedPins: 4},
		{Name: "b", Pkg: chip.MOSISPackages()[0], ReservedPins: 8},
	}}
	ar := dfg.ARLatticeFilter(16)
	cs = append(cs, goldenCase{name: "mixed/ar2p", cfg: fig7,
		p: &Partitioning{Graph: ar, Parts: dfg.LevelPartitions(ar, 2), PartChip: []int{0, 1}, Chips: mixed}})
	shared := exp1Config()
	shared.Lib = lib.ExtendedLibrary()
	shared.KeepAll = true
	rg := dfg.RandomDAG(77, 3, 9, 16)
	cs = append(cs, goldenCase{name: "shared/rand3p", cfg: shared, extra: true,
		p: &Partitioning{Graph: rg, Parts: dfg.LevelPartitions(rg, 3), PartChip: []int{1, 0, 1}, Chips: mixed}})
	for _, ports := range []int{1, 2} {
		cfg := exp2Config()
		cfg.KeepAll = true
		cs = append(cs, goldenCase{name: "mem/ports" + strconv.Itoa(ports), p: memPartitioning(ports), cfg: cfg, extra: true})
	}
	return cs
}

// memPartitioning splits two adder chains, each reading the shared block
// MA and the off-chip block MB, onto two chips.
func memPartitioning(ports int) *Partitioning {
	g := dfg.New("golden-mem")
	side := func(tag string) (nodes []int) {
		in := g.AddNode("in"+tag, dfg.OpInput, 16)
		ra := g.AddMemNode("ra"+tag, dfg.OpMemRd, 16, "MA")
		rb := g.AddMemNode("rb"+tag, dfg.OpMemRd, 16, "MB")
		nodes = append(nodes, ra, rb)
		prev := in
		for i := 0; i < 5; i++ {
			a := g.AddNode(tag+"a"+strconv.Itoa(i), dfg.OpAdd, 16)
			g.MustConnect(prev, a)
			switch i {
			case 0:
				g.MustConnect(ra, a)
			case 2:
				g.MustConnect(rb, a)
			}
			nodes = append(nodes, a)
			prev = a
		}
		o := g.AddNode("o"+tag, dfg.OpOutput, 16)
		g.MustConnect(prev, o)
		return nodes
	}
	left, right := side("L"), side("R")
	p := &Partitioning{
		Graph:    g,
		Parts:    [][]int{left, right},
		PartChip: []int{0, 1},
		Chips:    chip.NewUniformSet(2, chip.MOSISPackages()[1], 4),
		Mem: mem.System{
			Blocks: []mem.Block{
				{Name: "MA", Words: 64, Width: 16, Ports: ports, AccessTime: 100, Area: 3000, ControlPins: 2},
				{Name: "MB", Words: 256, Width: 8, Ports: 1, AccessTime: 150, OffChip: true, ControlPins: 1},
			},
			Assign: mem.Assignment{"MA": 0},
		},
	}
	return p
}

// TestIntegratorGolden evaluates every combination of the golden corpus's
// unpruned predictions through DebugIntegrator.Eval and requires the
// digest of all resulting designs to equal integratorGolden.
func TestIntegratorGolden(t *testing.T) {
	h := &goldenHasher{h: sha256.New()}
	evals := 0
	for _, c := range goldenCorpus(t) {
		if err := c.p.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		preds, err := PredictPartitions(c.p, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lists := make([][]bad.Design, len(preds))
		for i, r := range preds {
			lists[i] = r.Designs
		}
		total, err := enumSpaceSize(c.cfg, lists)
		if err != nil || total == 0 {
			t.Fatalf("%s: %d combinations, err %v", c.name, total, err)
		}
		var intervals []int
		if c.extra {
			intervals = iterativeIntervals(c.cfg, lists)
		}
		it := NewDebugIntegrator(c.p, c.cfg)
		h.str(c.name)
		idx := make([]int, len(lists))
		choice := make([]bad.Design, len(lists))
		for k := 0; k < total; k++ {
			l := 0
			for i, j := range idx {
				choice[i] = lists[i][j]
				l = max(l, choice[i].IIMainCycles(c.cfg.Clocks))
			}
			h.design(it.Eval(choice, l))
			evals++
			extra := 0
			for _, li := range intervals {
				if li > l && extra < 3 {
					h.int(li)
					h.design(it.Eval(choice, li))
					evals++
					extra++
				}
			}
			advanceOdometer(idx, lists)
		}
	}
	got := hex.EncodeToString(h.h.Sum(nil))
	t.Logf("%d evaluations, digest %s", evals, got)
	if got != integratorGolden {
		t.Fatalf("integrator golden digest = %s, want %s", got, integratorGolden)
	}
}
