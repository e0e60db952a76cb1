package bad

import (
	"fmt"
	"testing"

	"chop/internal/dfg"
)

// fuzzGraph deterministically maps a byte string onto a small DFG: each
// byte contributes a node (op and width derived from its bits) and an
// edge back to an earlier node. The same bytes always build the same
// graph, so key determinism is checkable per input.
func fuzzGraph(data []byte) *dfg.Graph {
	g := dfg.New("fuzz")
	in := g.AddNode("in", dfg.OpInput, 8)
	prev := in
	ops := []dfg.Op{dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpDiv}
	n := len(data)
	if n > 24 {
		n = 24
	}
	for i := 0; i < n; i++ {
		b := data[i]
		width := 4 + int(b>>4) // 4..19 bits
		id := g.AddNode(fmt.Sprintf("n%d", i), ops[int(b)&3], width)
		g.MustConnect(prev, id)
		if extra := (int(b) >> 2) % (id); extra != id && b&8 != 0 {
			g.MustConnect(extra, id)
		}
		prev = id
	}
	g.MustConnect(prev, g.AddNode("out", dfg.OpOutput, 8))
	return g
}

// FuzzPredictCacheKey checks four properties of the content hash on
// arbitrary generated graphs: it never panics, it equals the fmt
// referee's, it is deterministic, and it is sensitive to content
// mutations (width change, config change) while insensitive to node
// renaming.
func FuzzPredictCacheKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x3c, 0x81})
	f.Add([]byte("chop-fuzz-seed"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		cfg := exp1Config()
		key := CacheKey(g, cfg)
		if key == "" {
			t.Fatal("empty cache key")
		}
		if want := refCacheKey(g, cfg); key != want {
			t.Fatalf("key %s, fmt referee %s", key, want)
		}
		if again := CacheKey(fuzzGraph(data), cfg); again != key {
			t.Fatalf("key not deterministic: %q vs %q", key, again)
		}

		// Renaming every node must not move the key.
		renamed := fuzzGraph(data)
		for i := range renamed.Nodes {
			renamed.Nodes[i].Name = fmt.Sprintf("r%d", i)
		}
		if CacheKey(renamed, cfg) != key {
			t.Fatal("node renaming changed the key")
		}

		// Mutating one node's width must move it.
		mutated := fuzzGraph(data)
		mutated.Nodes[0].Width += 13
		if CacheKey(mutated, cfg) == key {
			t.Fatal("width mutation did not change the key")
		}

		// So must any config knob.
		c2 := cfg
		c2.Clocks.MainNS++
		if CacheKey(g, c2) == key {
			t.Fatal("clock mutation did not change the key")
		}

		// And the key must round-trip through the cache.
		c := NewPredictCache(4)
		c.Put(key, Result{Total: len(data)})
		if r, ok := c.Get(key); !ok || r.Total != len(data) {
			t.Fatalf("cache round-trip failed: %v %v", r, ok)
		}
	})
}
