package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/stats"
)

// TestParallelMatchesSerialOnARFilter: the paper's AR-filter setups at
// several partition counts, both heuristics, with and without KeepAll,
// match the reference walk at every worker count (one worker, several, and
// more workers than shards). Predictions are computed once per problem.
func TestParallelMatchesSerialOnARFilter(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		for ci, base := range []Config{exp1Config(), exp2Config()} {
			if n == 3 && ci == 1 && testing.Short() {
				continue // the largest enumeration space; skip under -short
			}
			for _, keepAll := range []bool{false, true} {
				cfg := base
				cfg.KeepAll = keepAll
				p := arPartitioning(t, n, 1)
				preds, err := PredictPartitions(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range []Heuristic{Enumeration, Iterative} {
					want := referenceSearch(t, p, cfg, preds, h)
					for _, workers := range []int{1, 3, 64} {
						searchMatchesReference(t, want, p, cfg, preds, workers, fmt.Sprintf(
							"ar n=%d cfg=%d keepAll=%v h=%s w=%d", n, ci+1, keepAll, h, workers))
					}
				}
			}
		}
	}
}

// TestParallelSpaceOrderMatchesSerial is the shard-merge regression test
// for record: under KeepAll the merged Space sequence must equal the
// reference walk's append order point for point, not just as a multiset.
func TestParallelSpaceOrderMatchesSerial(t *testing.T) {
	cfg := exp1Config()
	cfg.KeepAll = true
	p := arPartitioning(t, 3, 1)
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSearch(t, p, cfg, preds, Enumeration)
	if len(want.Space) == 0 {
		t.Fatal("KeepAll run recorded no space points; test is vacuous")
	}
	got := searchMatchesReference(t, want, p, cfg, preds, 4, "space order")
	for i := range want.Space {
		if want.Space[i] != got.Space[i] {
			t.Fatalf("Space[%d] diverges: reference %+v, parallel %+v",
				i, want.Space[i], got.Space[i])
		}
	}
}

// TestParallelNegativeWorkersUsesAllCores: Workers < 0 must behave like an
// explicit worker count (GOMAXPROCS) and stay deterministic.
func TestParallelNegativeWorkersUsesAllCores(t *testing.T) {
	cfg := exp1Config()
	p := arPartitioning(t, 2, 1)
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSearch(t, p, cfg, preds, Enumeration)
	searchMatchesReference(t, want, p, cfg, preds, -1, "workers=-1")
}

// TestParallelEnumerationGuardMatchesSerial: the MaxCombinations guard must
// fire identically (same error text) on both paths.
func TestParallelEnumerationGuardMatchesSerial(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.MaxCombinations = 1
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	_, serr := Search(p, scfg, preds, Enumeration)
	pcfg := cfg
	pcfg.Workers = 4
	_, perr := Search(p, pcfg, preds, Enumeration)
	if serr == nil || perr == nil {
		t.Fatalf("guard did not fire: serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("guard errors diverge:\n  serial:   %v\n  parallel: %v", serr, perr)
	}
}

// randomLayeredDFG builds a randomized acyclic layered graph from the
// seeded PRNG passed in (no global rand): 2-4 levels of 2-4 nodes, random
// add/mul/sub ops, random cross-level edges.
func randomLayeredDFG(rng *rand.Rand, name string) *dfg.Graph {
	g := dfg.New(name)
	ops := []dfg.Op{dfg.OpAdd, dfg.OpMul, dfg.OpSub}
	levels := 2 + rng.Intn(3)
	width := 2 + rng.Intn(3)
	prev := make([]int, 0, width)
	for i := 0; i < width; i++ {
		prev = append(prev, g.AddNode(fmt.Sprintf("in%d", i), dfg.OpInput, 16))
	}
	for l := 0; l < levels; l++ {
		cur := make([]int, 0, width)
		for i := 0; i < width; i++ {
			op := ops[rng.Intn(len(ops))]
			id := g.AddNode(fmt.Sprintf("n%d_%d", l, i), op, 16)
			// 1-2 predecessors from the previous level keeps it acyclic.
			g.MustConnect(prev[rng.Intn(len(prev))], id)
			if rng.Intn(2) == 0 {
				g.MustConnect(prev[rng.Intn(len(prev))], id)
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	for i, id := range prev {
		g.MustConnect(id, g.AddNode(fmt.Sprintf("out%d", i), dfg.OpOutput, 16))
	}
	return g
}

// randomProblem derives a randomized partitioning problem from a seed:
// random graph, random 1-3-way level partitioning, random package and
// constraint looseness, random style. Everything flows from the seed, so
// failures reproduce exactly.
func randomProblem(t *testing.T, seed int64) (*Partitioning, Config, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomLayeredDFG(rng, fmt.Sprintf("rand%d", seed))
	nParts := 1 + rng.Intn(3)
	parts := dfg.LevelPartitions(g, nParts)
	nParts = len(parts)
	chips := make([]int, nParts)
	for i := range chips {
		chips[i] = i
	}
	p := &Partitioning{
		Graph:    g,
		Parts:    parts,
		PartChip: chips,
		Chips:    chip.NewUniformSet(nParts, chip.MOSISPackages()[rng.Intn(2)], 4),
	}
	if err := p.Validate(); err != nil {
		return nil, Config{}, err
	}
	bound := float64(10000 * (1 + rng.Intn(6)))
	cfg := Config{
		Lib:    lib.ExtendedLibrary(),
		Style:  bad.Style{MultiCycle: rng.Intn(2) == 0},
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 1 + rng.Intn(10), TransferMult: 1},
		Constraints: Constraints{
			Perf:  stats.Constraint{Bound: bound, MinProb: 1},
			Delay: stats.Constraint{Bound: 2 * bound, MinProb: 0.8},
		},
		KeepAll: rng.Intn(4) == 0,
	}
	return p, cfg, nil
}

// TestParallelMatchesSerialRandomized is the equivalence property test:
// randomized DFGs, partitionings and configurations must match the
// reference walk at one worker and at several, for both heuristics.
func TestParallelMatchesSerialRandomized(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p, cfg, err := randomProblem(t, seed)
		if err != nil {
			t.Fatalf("seed %d: invalid problem: %v", seed, err)
		}
		preds, err := PredictPartitions(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: predict: %v", seed, err)
		}
		for _, h := range []Heuristic{Enumeration, Iterative} {
			want := referenceSearch(t, p, cfg, preds, h)
			for _, workers := range []int{1, 2 + int(seed%7)} {
				searchMatchesReference(t, want, p, cfg, preds, workers,
					fmt.Sprintf("seed=%d h=%s w=%d", seed, h, workers))
			}
		}
	}
}

// TestParallelSearchRaceStress drives the sharded merger hard under the
// race detector: many concurrent parallel searches over one shared
// partitioning, tracer and metrics registry, all workers contending on the
// same sinks.
func TestParallelSearchRaceStress(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.KeepAll = true
	cfg.Workers = 8
	cfg.Metrics = obs.NewMetrics()
	cfg.Trace = obs.New(obs.NewCountingSink())
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSearch(t, p, cfg, preds, Enumeration)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Search(p, cfg, preds, Enumeration)
			if err != nil {
				t.Errorf("concurrent search: %v", err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("concurrent parallel search diverged from the reference walk")
			}
		}()
	}
	wg.Wait()
}
