package core

import (
	"slices"
	"sync"
	"unsafe"

	"chop/internal/stats"
	"chop/internal/urgency"
)

// A trial's transfer stage, urgency schedule and transfer modules depend on
// its timing signature only: the bus-width cap, the system interval l and
// each partition's latency in main cycles (paper 2.5). Bus widths, transfer
// times and the pin- and memory-bandwidth checks read the cap and l; the
// schedule adds the latencies; the modules' waits, buffers B = D(ceil(W/l) +
// X/l) and PLA controllers read the schedule. Only chip area, pins, clock,
// power and the 2.6 checks read the rest of the chosen designs. sigMemo
// keeps, per shard, everything integrateBus derives from a signature, so a
// combination whose signature an earlier trial met skips straight to that
// choice-dependent tail.
//
// The storage holds no pointers, so the collector never scans it: entries
// are pointer-free heads plus fixed-stride runs in int, transfer and chip
// arenas, found through an open-addressing table of entry numbers. Names,
// spans and modules are rebuilt from the integrator's tables; the rare
// schedule error is the one reference kept (errs). The memo clears itself
// when it reaches memoBudget bytes, and the arenas are recycled across
// searches through memoFree.

// memoBudget bounds one memo's storage in bytes; reaching it clears the
// memo. Results never depend on hits, so clearing changes no outcome.
const memoBudget = 2 << 20

// minMemoSlots is the hash table's size after a clear; a power of two.
const minMemoSlots = 64

// memoFree recycles memos across searches: a search's drain workers and a
// fresh integrator per advisor check would otherwise regrow the arenas
// every time. It is a plain free list rather than a sync.Pool, whose
// per-P slots make reuse depend on which processor a worker lands on:
// allocations per search would vary from run to run, and they are gated.
// It keeps at most maxFreeMemos memos, none over maxFreeMemoBytes.
var memoFree struct {
	sync.Mutex
	memos []*sigMemo
}

const (
	maxFreeMemos     = 8
	maxFreeMemoBytes = memoBudget / 4
)

// sigHead is one entry's fixed part: the signature's hash, the verdict of
// the transfer and schedule stages, and the schedule's statistics.
type sigHead struct {
	hash uint64
	// code is ReasonNone when the signature integrates up to the
	// choice-dependent tail; otherwise the early rejection, with chip and n
	// its rejection arguments and ref its subject: the transfer task
	// (no-pins, data-clash), the memory block (mem-bandwidth) or the index
	// into errs (schedule).
	code  Reason
	chip  int
	n     [4]int
	ref   int
	sched urgency.Stats
	// maxCtrl is the slowest transfer controller's delay.
	maxCtrl stats.Triplet
}

// sigXfer is one transfer task under a signature: its bus width, transfer
// time (main cycles), scheduled start and wait, and its module's buffer
// bits, area and controller delay.
type sigXfer struct {
	pins, xferMain, start, wait, buf int
	area, ctrl                       stats.Triplet
}

// sigChip is one chip under a signature: its widest transfer bus and the
// summed area of its transfer modules.
type sigChip struct {
	payload int
	modArea stats.Triplet
}

// sigEntry views one entry's arena runs; they stay valid until the next
// lookup.
type sigEntry struct {
	// key is the signature: bus cap, l, then the partition latencies.
	key []int
	// starts holds the partitions' scheduled starts.
	starts []int
	xfers  []sigXfer
	chips  []sigChip
}

// sigMemo is one shard's signature memo; see the comment above memoBudget.
// Entry k owns heads[k] and fixed-stride runs of ints (key, then starts),
// xfers and chips.
type sigMemo struct {
	nP, nT, nC int
	heads      []sigHead
	ints       []int
	xfers      []sigXfer
	chips      []sigChip
	errs       []error
	// slots holds entry number + 1 per hash slot, 0 when empty.
	slots  []int32
	budget int
}

// newMemo takes a memo from the free list, laid out for nP partitions, nT
// transfer tasks and nC chips.
func newMemo(nP, nT, nC int) *sigMemo {
	m := new(sigMemo)
	memoFree.Lock()
	if n := len(memoFree.memos); n > 0 {
		m = memoFree.memos[n-1]
		memoFree.memos = memoFree.memos[:n-1]
	}
	memoFree.Unlock()
	m.nP, m.nT, m.nC = nP, nT, nC
	m.budget = memoBudget
	m.clear()
	return m
}

// release returns m to the free list; m must not be used afterwards.
func (m *sigMemo) release() {
	size := cap(m.heads)*sigHeadBytes + cap(m.ints)*8 + cap(m.xfers)*sigXferBytes +
		cap(m.chips)*sigChipBytes + cap(m.slots)*4
	memoFree.Lock()
	defer memoFree.Unlock()
	if len(memoFree.memos) < maxFreeMemos && size <= maxFreeMemoBytes {
		clear(m.errs)
		memoFree.memos = append(memoFree.memos, m)
	}
}

// clear drops every entry, keeping the arenas' capacity.
func (m *sigMemo) clear() {
	m.heads, m.ints, m.xfers, m.chips = m.heads[:0], m.ints[:0], m.xfers[:0], m.chips[:0]
	clear(m.errs)
	m.errs = m.errs[:0]
	m.slots = resetSlots(m.slots, minMemoSlots)
}

// resetSlots returns an empty table of n slots, reusing s's storage.
func resetSlots(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Byte sizes of the arena elements, for the budget.
const (
	sigHeadBytes = int(unsafe.Sizeof(sigHead{}))
	sigXferBytes = int(unsafe.Sizeof(sigXfer{}))
	sigChipBytes = int(unsafe.Sizeof(sigChip{}))
)

// entryBytes is one entry's share of the arenas.
func (m *sigMemo) entryBytes() int {
	return sigHeadBytes + 8*(2+2*m.nP) + sigXferBytes*m.nT + sigChipBytes*m.nC
}

// bytes is the memo's storage in use.
func (m *sigMemo) bytes() int {
	return len(m.heads)*m.entryBytes() + len(m.slots)*4 + len(m.errs)*16
}

// hashKey mixes a signature into 64 bits (FNV-1a over words, then a
// finalizer so the low bits index the table well).
func hashKey(key []int) uint64 {
	h := uint64(14695981039346656037)
	for _, k := range key {
		h = (h ^ uint64(k)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// lookup finds key's entry, adding an empty one on a miss for the caller
// to solve; hit reports whether the entry existed.
func (m *sigMemo) lookup(key []int) (k int, hit bool) {
	h := hashKey(key)
	slot := m.probe(h, key)
	if s := m.slots[slot]; s != 0 {
		return int(s - 1), true
	}
	if m.bytes()+m.entryBytes() > m.budget {
		m.clear()
		slot = m.probe(h, key)
	}
	if 2*(len(m.heads)+1) > len(m.slots) {
		m.growTable()
		slot = m.probe(h, key)
	}
	k = len(m.heads)
	m.heads = append(m.heads, sigHead{hash: h, chip: -1})
	m.ints = extend(m.ints, 2+2*m.nP)
	m.xfers = extend(m.xfers, m.nT)
	m.chips = extend(m.chips, m.nC)
	copy(m.entry(k).key, key)
	m.slots[slot] = int32(k + 1)
	return k, false
}

// extend lengthens s by n zeroed elements. The spare capacity holds
// cleared entries, so the new ones are zeroed explicitly.
func extend[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// probe returns key's slot: the one holding its entry, or the empty slot
// where it would go.
func (m *sigMemo) probe(h uint64, key []int) int {
	mask := len(m.slots) - 1
	stride := 2 + 2*m.nP
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := m.slots[i]
		if s == 0 {
			return i
		}
		k := int(s - 1)
		if m.heads[k].hash == h && slices.Equal(m.ints[k*stride:k*stride+len(key)], key) {
			return i
		}
	}
}

// growTable doubles the table and reinserts every entry by its stored hash.
func (m *sigMemo) growTable() {
	m.slots = resetSlots(m.slots, 2*len(m.slots))
	mask := len(m.slots) - 1
	for k := range m.heads {
		i := int(m.heads[k].hash) & mask
		for m.slots[i] != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = int32(k + 1)
	}
}

// entry returns entry k's runs.
func (m *sigMemo) entry(k int) sigEntry {
	nK, stride := 2+m.nP, 2+2*m.nP
	ints := m.ints[k*stride : (k+1)*stride]
	return sigEntry{
		key: ints[:nK], starts: ints[nK:],
		xfers: m.xfers[k*m.nT : (k+1)*m.nT],
		chips: m.chips[k*m.nC : (k+1)*m.nC],
	}
}

// addErr keeps a schedule error and returns its index.
func (m *sigMemo) addErr(err error) int {
	m.errs = append(m.errs, err)
	return len(m.errs) - 1
}
