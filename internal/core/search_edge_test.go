package core

import (
	"reflect"
	"testing"

	"chop/internal/bad"
	"chop/internal/dfg"
	"chop/internal/lib"
)

// Edge-case tables for the small helpers the search engines lean on:
// nextValid (the Figure-5 serialization step), cloneChoice (trial snapshot
// isolation), and the shard arithmetic of the parallel engine.

func TestNextValidEdgeCases(t *testing.T) {
	// exp1 clocks: DatapathMult 10, so a design with II n runs at 10n main
	// cycles. Pipelined designs are selectable only at exactly their
	// interval; non-pipelined at any interval at or above it.
	cfg := exp1Config()
	pip := func(ii int) bad.Design { return bad.Design{Style: bad.Pipelined, II: ii} }
	non := func(ii int) bad.Design { return bad.Design{Style: bad.NonPipelined, II: ii} }
	cases := []struct {
		name string
		list []bad.Design
		from int
		l    int
		want int
	}{
		{"empty list", nil, -1, 100, -1},
		{"empty list, from beyond", nil, 5, 100, -1},
		{"single element, from at end", []bad.Design{non(3)}, 0, 100, -1},
		{"from beyond length", []bad.Design{non(3), non(4)}, 7, 100, -1},
		{"all-invalid tail", []bad.Design{non(3), non(8), non(9)}, 0, 40, -1},
		{"skips invalid middle", []bad.Design{non(3), non(9), non(4)}, 0, 40, 2},
		{"negative from scans whole list", []bad.Design{non(9), pip(2)}, -1, 20, 1},
		{"pipelined needs exact interval", []bad.Design{pip(3), pip(5)}, -1, 40, -1},
		{"pipelined exact match", []bad.Design{pip(3), pip(4)}, -1, 40, 1},
		{"nonpipelined at bound", []bad.Design{non(4)}, -1, 40, 0},
		{"nonpipelined above bound", []bad.Design{non(5)}, -1, 40, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := nextValid(tc.list, tc.from, tc.l, cfg); got != tc.want {
				t.Fatalf("nextValid(from=%d, l=%d) = %d, want %d", tc.from, tc.l, got, tc.want)
			}
		})
	}
}

// TestCloneChoiceIsolation checks that a design leaving the search owns
// its slices: the enumeration loop reuses its choice scratch and the
// shard's trial frames, while recorded designs keep their snapshots.
func TestCloneChoiceIsolation(t *testing.T) {
	sets, err := lib.Table1Library().EnumerateSets([]dfg.Op{dfg.OpAdd, dfg.OpMul})
	if err != nil || len(sets) == 0 {
		t.Fatalf("EnumerateSets: %v (%d sets)", err, len(sets))
	}
	ms := sets[0]
	orig := []bad.Design{
		{Style: bad.NonPipelined, II: 3, ModuleSet: ms},
		{Style: bad.Pipelined, II: 5, ModuleSet: ms},
	}
	chips := []int{0, 1}
	scratch := GlobalDesign{Choice: orig, ChipPins: []int{7, 8},
		Schedule: []TaskSpan{{Name: "P1"}, {Name: "T", Chips: chips}}}
	owned := scratch.own()
	if !reflect.DeepEqual(scratch, owned) {
		t.Fatal("owned design differs from the original")
	}
	// Top-level aliasing: mutating the scratch must not reach the owned
	// design.
	orig[0].II = 99
	orig[1] = bad.Design{}
	scratch.ChipPins[0] = 0
	chips[1] = 5
	if owned.Choice[0].II != 3 || owned.Choice[1].Style != bad.Pipelined {
		t.Fatalf("mutating the choice scratch leaked into the owned design: %+v", owned.Choice)
	}
	if owned.ChipPins[0] != 7 || owned.Schedule[1].Chips[1] != 1 {
		t.Fatalf("mutating the trial frame leaked into the owned design: %+v", owned)
	}
	// Nil slices stay nil, empty ones empty.
	if got := (GlobalDesign{}).own(); got.Choice != nil || got.Schedule != nil || got.Modules != nil {
		t.Fatalf("own of the zero design = %+v", got)
	}
	if got := (GlobalDesign{Choice: []bad.Design{}}).own(); got.Choice == nil || len(got.Choice) != 0 {
		t.Fatalf("own of an empty choice = %v", got.Choice)
	}
}

func TestShardRangeCoversSpace(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{1, 1}, {7, 3}, {8, 4}, {100, 7}, {5, 5}, {16, 16},
	} {
		prev := 0
		for si := 0; si < tc.shards; si++ {
			lo, hi := shardRange(tc.total, tc.shards, si)
			if lo != prev {
				t.Fatalf("total=%d shards=%d: shard %d starts at %d, want %d",
					tc.total, tc.shards, si, lo, prev)
			}
			if hi < lo {
				t.Fatalf("total=%d shards=%d: shard %d inverted [%d,%d)",
					tc.total, tc.shards, si, lo, hi)
			}
			if size := hi - lo; size != tc.total/tc.shards && size != tc.total/tc.shards+1 {
				t.Fatalf("total=%d shards=%d: shard %d unbalanced size %d",
					tc.total, tc.shards, si, size)
			}
			prev = hi
		}
		if prev != tc.total {
			t.Fatalf("total=%d shards=%d: shards cover %d", tc.total, tc.shards, prev)
		}
	}
}

func TestDecodeCombinationMatchesOdometer(t *testing.T) {
	lists := [][]bad.Design{
		make([]bad.Design, 3),
		make([]bad.Design, 1),
		make([]bad.Design, 4),
	}
	total := 3 * 1 * 4
	idx := make([]int, len(lists)) // odometer walk
	decoded := make([]int, len(lists))
	for k := 0; k < total; k++ {
		decodeCombination(k, lists, decoded)
		for i := range idx {
			if decoded[i] != idx[i] {
				t.Fatalf("k=%d: decode %v, odometer %v", k, decoded, idx)
			}
		}
		advanceOdometer(idx, lists)
	}
	// After the last combination the odometer must report wrap-around.
	for i := range idx {
		idx[i] = len(lists[i]) - 1
	}
	if advanceOdometer(idx, lists) {
		t.Fatal("odometer did not report exhaustion at final combination")
	}
}
