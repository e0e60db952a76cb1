package urgency

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// This file keeps the original cycle-stepping, map-based urgency scheduler
// as the referee of the compiled, event-driven one: referenceSchedule is
// its body unchanged, and the differential test and fuzz target require
// Scheduler.Run to agree with it on start times, makespan, cycle count and
// error class.

// Task is one schedulable unit in the referee's map-based form.
type Task struct {
	Name string
	// Dur is the task duration in main-clock cycles (>= 0).
	Dur int
	// Deps lists the indices of tasks that must finish before this one
	// starts.
	Deps []int
	// Pins maps chip index -> pins occupied on that chip while the task
	// runs. Partition executions occupy no pins; transfers occupy their
	// bus width on every involved chip.
	Pins map[int]int
}

// referenceSchedule computes an urgency-driven resource-constrained
// schedule one cycle at a time. cap maps chip index -> available pins.
func referenceSchedule(tasks []Task, cap map[int]int) (Result, Stats, error) {
	n := len(tasks)
	if n == 0 {
		return Result{}, Stats{}, nil
	}
	for i, t := range tasks {
		if t.Dur < 0 {
			return Result{}, Stats{}, fmt.Errorf("urgency: task %q has negative duration", t.Name)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return Result{}, Stats{}, fmt.Errorf("urgency: task %q has dependency %d out of range", t.Name, d)
			}
			if d == i {
				return Result{}, Stats{}, fmt.Errorf("urgency: task %q depends on itself", t.Name)
			}
		}
		for chip, p := range t.Pins {
			if p > cap[chip] {
				return Result{}, Stats{}, fmt.Errorf("urgency: task %q needs %d pins on chip %d (capacity %d)",
					t.Name, p, chip, cap[chip])
			}
			if p < 0 {
				return Result{}, Stats{}, fmt.Errorf("urgency: task %q has negative pin demand", t.Name)
			}
		}
	}
	succs := make([][]int, n)
	indeg := make([]int, n)
	for i, t := range tasks {
		for _, d := range t.Deps {
			succs[d] = append(succs[d], i)
			indeg[i]++
		}
	}
	order, err := topo(tasks, succs, indeg)
	if err != nil {
		return Result{}, Stats{}, err
	}
	// Urgency: longest path (inclusive) from the task to any sink.
	urg := make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		max := 0
		for _, s := range succs[id] {
			if urg[s] > max {
				max = urg[s]
			}
		}
		urg[id] = max + tasks[id].Dur
	}

	start := make([]int, n)
	for i := range start {
		start[i] = -1
	}
	finish := make([]int, n)
	unmet := make([]int, n)
	copy(unmet, indeg)
	ready := []int{}
	for i, d := range unmet {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	earliest := make([]int, n)
	type running struct{ id, finish int }
	var active []running
	free := make(map[int]int, len(cap))
	for c, p := range cap {
		free[c] = p
	}
	scheduled := 0
	makespan := 0
	cycles := 0
	for t := 0; scheduled < n; t++ {
		cycles = t + 1
		// Retire finished tasks, releasing pins and readying successors.
		kept := active[:0]
		for _, r := range active {
			if r.finish > t {
				kept = append(kept, r)
				continue
			}
			for c, p := range tasks[r.id].Pins {
				free[c] += p
			}
		}
		active = kept
		// Launch ready tasks, most urgent first; sweep until fixpoint so
		// zero-duration tasks cascade within the same cycle.
		for progress := true; progress; {
			progress = false
			sort.Slice(ready, func(a, b int) bool {
				if urg[ready[a]] != urg[ready[b]] {
					return urg[ready[a]] > urg[ready[b]]
				}
				return ready[a] < ready[b]
			})
			var still []int
			for _, id := range ready {
				if earliest[id] > t || !pinsFree(tasks[id].Pins, free) {
					still = append(still, id)
					continue
				}
				for c, p := range tasks[id].Pins {
					free[c] -= p
				}
				start[id] = t
				finish[id] = t + tasks[id].Dur
				if finish[id] > makespan {
					makespan = finish[id]
				}
				if tasks[id].Dur > 0 {
					active = append(active, running{id, finish[id]})
				} else {
					for c, p := range tasks[id].Pins {
						free[c] += p
					}
				}
				scheduled++
				progress = true
				for _, s := range succs[id] {
					if finish[id] > earliest[s] {
						earliest[s] = finish[id]
					}
					unmet[s]--
					if unmet[s] == 0 {
						still = append(still, s)
					}
				}
			}
			ready = still
		}
		if t > horizonFor(tasks) && scheduled < n {
			return Result{}, Stats{}, fmt.Errorf("urgency: schedule did not converge after %d cycles", t)
		}
	}
	return Result{Start: start, Makespan: makespan},
		Stats{Tasks: n, Cycles: cycles, Makespan: makespan}, nil
}

func pinsFree(need map[int]int, free map[int]int) bool {
	for c, p := range need {
		if free[c] < p {
			return false
		}
	}
	return true
}

func horizonFor(tasks []Task) int {
	h := 16
	for _, t := range tasks {
		h += t.Dur + 1
	}
	return h * 2
}

func topo(tasks []Task, succs [][]int, indeg []int) ([]int, error) {
	n := len(tasks)
	deg := make([]int, n)
	copy(deg, indeg)
	queue := []int{}
	for i, d := range deg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succs[id] {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("urgency: task graph has a cycle")
	}
	return order, nil
}

// criticalPath returns the unconstrained critical-path length of the task
// graph: a lower bound on any schedule's makespan.
func criticalPath(tasks []Task) (int, error) {
	n := len(tasks)
	succs := make([][]int, n)
	indeg := make([]int, n)
	for i, t := range tasks {
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return 0, fmt.Errorf("urgency: dependency out of range")
			}
			succs[d] = append(succs[d], i)
			indeg[i]++
		}
	}
	order, err := topo(tasks, succs, indeg)
	if err != nil {
		return 0, err
	}
	finish := make([]int, n)
	cp := 0
	for _, id := range order {
		s := 0
		for _, d := range tasks[id].Deps {
			if finish[d] > s {
				s = finish[d]
			}
		}
		finish[id] = s + tasks[id].Dur
		if finish[id] > cp {
			cp = finish[id]
		}
	}
	return cp, nil
}

// scheduleDense runs map-based tasks through the compiled path: every chip
// named by cap or by a task becomes a resource (capacity 0 when cap omits
// it), each task uses its chips in ascending order, and its width is the
// pin count it names for all of them — the compiled path's model, in which
// a task holds the same amount of every resource it uses.
func scheduleDense(tasks []Task, cap map[int]int) (Result, Stats, error) {
	chipSet := map[int]bool{}
	for c := range cap {
		chipSet[c] = true
	}
	for _, t := range tasks {
		for c := range t.Pins {
			chipSet[c] = true
		}
	}
	var chips []int
	for c := range chipSet {
		chips = append(chips, c)
	}
	sort.Ints(chips)
	res := make([]Resource, len(chips))
	for i, c := range chips {
		res[i] = Resource{ID: c, Cap: cap[c]}
	}
	specs := make([]TaskSpec, len(tasks))
	dur := make([]int, len(tasks))
	width := make([]int, len(tasks))
	for i, t := range tasks {
		specs[i] = TaskSpec{Name: t.Name, Deps: t.Deps}
		for k, c := range chips {
			p, ok := t.Pins[c]
			if !ok {
				continue
			}
			if len(specs[i].Uses) > 0 && p != width[i] {
				return Result{}, Stats{}, fmt.Errorf("task %q: pins %v differ by chip", t.Name, t.Pins)
			}
			specs[i].Uses = append(specs[i].Uses, k)
			width[i] = p
		}
		dur[i] = t.Dur
	}
	g, err := Compile(specs, res)
	if err != nil {
		return Result{}, Stats{}, err
	}
	return NewScheduler(g).Run(dur, width)
}

// schedule is the compiled path's result without statistics.
func schedule(tasks []Task, cap map[int]int) (Result, error) {
	res, _, err := scheduleDense(tasks, cap)
	return res, err
}

// errClass buckets a scheduling error by its cause.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	msg := err.Error()
	for _, c := range []string{"negative duration", "out of range", "depends on itself",
		"needs", "negative pin demand", "cycle", "did not converge"} {
		if strings.Contains(msg, c) {
			return c
		}
	}
	return "unknown: " + msg
}

// randomTaskGraph draws a task graph for the differential test: up to 12
// tasks with many zero durations (cascades), dependencies on earlier tasks,
// transfers sharing chip pins, partitions holding single-port memory
// resources, and in about one graph of five exactly one malformation:
// a cycle, a dependency out of range or on itself, a negative duration, or
// a width that is negative or over a chip's capacity.
func randomTaskGraph(rng *rand.Rand) ([]Task, map[int]int) {
	chips := 1 + rng.Intn(3)
	capacity := map[int]int{}
	for c := 0; c < chips; c++ {
		capacity[c] = rng.Intn(12)
	}
	mems := rng.Intn(3)
	for m := 0; m < mems; m++ {
		capacity[1<<20+m] = 1 + rng.Intn(2)*rng.Intn(2) // mostly single-port
	}
	n := rng.Intn(13)
	tasks := make([]Task, n)
	for i := range tasks {
		t := Task{Name: fmt.Sprintf("t%d", i), Pins: map[int]int{}}
		if rng.Intn(3) > 0 {
			t.Dur = rng.Intn(9)
		}
		for j := 0; j < i; j++ {
			if rng.Intn(4) == 0 {
				t.Deps = append(t.Deps, j)
			}
		}
		if rng.Intn(2) == 0 {
			// A transfer: one bus width on each chip it spans.
			var spans []int
			w := 8
			for c := 0; c < chips; c++ {
				if rng.Intn(2) == 0 {
					spans = append(spans, c)
					w = min(w, capacity[c])
				}
			}
			w = rng.Intn(w + 1)
			for _, c := range spans {
				t.Pins[c] = w
			}
		} else {
			// A partition: one port of each memory block it accesses.
			for m := 0; m < mems; m++ {
				if rng.Intn(2) == 0 {
					t.Pins[1<<20+m] = 1
				}
			}
		}
		tasks[i] = t
	}
	if n == 0 || rng.Intn(5) > 0 {
		return tasks, capacity
	}
	i := rng.Intn(n)
	switch rng.Intn(6) {
	case 0: // a cycle through i and a later task (or itself, when last)
		j := i + rng.Intn(n-i)
		tasks[i].Deps = append(tasks[i].Deps, j)
		tasks[j].Deps = append(tasks[j].Deps, i)
	case 1:
		tasks[i].Deps = append(tasks[i].Deps, []int{-1, n, n + 3}[rng.Intn(3)])
	case 2:
		tasks[i].Deps = append(tasks[i].Deps, i)
	case 3:
		tasks[i].Dur = -1 - rng.Intn(3)
	case 4:
		setWidth(tasks[i], 0, -1)
	case 5:
		c := rng.Intn(chips)
		setWidth(tasks[i], c, capacity[c]+1+rng.Intn(3))
	}
	return tasks, capacity
}

// setWidth makes t use chip c and sets its width on every resource it uses
// to w.
func setWidth(t Task, c, w int) {
	t.Pins[c] = w
	for r := range t.Pins {
		t.Pins[r] = w
	}
}

// requireMatchesReference checks one graph against the referee.
func requireMatchesReference(t *testing.T, tasks []Task, capacity map[int]int) {
	t.Helper()
	want, wantStats, wantErr := referenceSchedule(tasks, capacity)
	got, gotStats, gotErr := scheduleDense(tasks, capacity)
	if wc, gc := errClass(wantErr), errClass(gotErr); wc != gc {
		t.Fatalf("error class: reference %q (%v), compiled %q (%v)\ntasks %+v cap %v", wc, wantErr, gc, gotErr, tasks, capacity)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(want.Start, got.Start) || want.Makespan != got.Makespan || wantStats != gotStats {
		t.Fatalf("schedule diverges:\nreference %v %+v\ncompiled  %v %+v\ntasks %+v cap %v",
			want, wantStats, got, gotStats, tasks, capacity)
	}
}

// TestScheduleMatchesReference is the differential test of the compiled
// scheduler against the cycle-stepping referee over 3000 seeded random
// task graphs.
func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260917))
	classes := map[string]int{}
	for k := 0; k < 3000; k++ {
		tasks, capacity := randomTaskGraph(rng)
		requireMatchesReference(t, tasks, capacity)
		_, _, err := referenceSchedule(tasks, capacity)
		classes[errClass(err)]++
	}
	// The generator must reach every class it is meant to cover.
	for _, c := range []string{"ok", "negative duration", "out of range", "depends on itself",
		"needs", "negative pin demand", "cycle"} {
		if classes[c] == 0 {
			t.Errorf("no graph of class %q in %v", c, classes)
		}
	}
}

// FuzzScheduleMatchesReference drives the differential test's generator
// from fuzzed seeds.
func FuzzScheduleMatchesReference(f *testing.F) {
	for _, s := range []int64{0, 1, 42, 20260917} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		tasks, capacity := randomTaskGraph(rand.New(rand.NewSource(seed)))
		requireMatchesReference(t, tasks, capacity)
	})
}
