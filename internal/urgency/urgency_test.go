package urgency

import (
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	r, err := schedule(nil, nil)
	if err != nil || r.Makespan != 0 {
		t.Fatalf("empty schedule: %+v err=%v", r, err)
	}
}

func TestChainMakespan(t *testing.T) {
	tasks := []Task{
		{Name: "a", Dur: 5},
		{Name: "b", Dur: 3, Deps: []int{0}},
		{Name: "c", Dur: 2, Deps: []int{1}},
	}
	r, err := schedule(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 10 {
		t.Fatalf("Makespan = %d, want 10", r.Makespan)
	}
	if r.Start[0] != 0 || r.Start[1] != 5 || r.Start[2] != 8 {
		t.Fatalf("starts = %v", r.Start)
	}
}

func TestPinContentionSerializes(t *testing.T) {
	// Two transfers both need 20 pins on chip 0, which has 30: serialize.
	tasks := []Task{
		{Name: "t1", Dur: 4, Pins: map[int]int{0: 20}},
		{Name: "t2", Dur: 4, Pins: map[int]int{0: 20}},
	}
	r, err := schedule(tasks, map[int]int{0: 30})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 8 {
		t.Fatalf("Makespan = %d, want 8 (serialized)", r.Makespan)
	}
	// With 40 pins they run in parallel.
	r2, err := schedule(tasks, map[int]int{0: 40})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan != 4 {
		t.Fatalf("Makespan = %d, want 4 (parallel)", r2.Makespan)
	}
}

func TestMultiChipPins(t *testing.T) {
	// A transfer occupying pins on two chips blocks tasks on either chip.
	tasks := []Task{
		{Name: "ab", Dur: 3, Pins: map[int]int{0: 10, 1: 10}},
		{Name: "b", Dur: 3, Pins: map[int]int{1: 10}},
	}
	r, err := schedule(tasks, map[int]int{0: 10, 1: 15})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 6 {
		t.Fatalf("Makespan = %d, want 6", r.Makespan)
	}
}

func TestUrgencyPrefersCriticalPath(t *testing.T) {
	// Two chains compete for one resource; the longer chain must go first
	// for the minimal makespan.
	tasks := []Task{
		{Name: "long1", Dur: 2, Pins: map[int]int{0: 1}},
		{Name: "long2", Dur: 10, Deps: []int{0}},
		{Name: "short", Dur: 2, Pins: map[int]int{0: 1}},
	}
	r, err := schedule(tasks, map[int]int{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Start[0] != 0 {
		t.Fatalf("critical task not scheduled first: starts=%v", r.Start)
	}
	if r.Makespan != 12 {
		t.Fatalf("Makespan = %d, want 12", r.Makespan)
	}
}

func TestStructuralInfeasibility(t *testing.T) {
	tasks := []Task{{Name: "t", Dur: 1, Pins: map[int]int{0: 100}}}
	if _, err := schedule(tasks, map[int]int{0: 64}); err == nil {
		t.Fatal("over-demand accepted")
	}
}

func TestCycleDetected(t *testing.T) {
	tasks := []Task{
		{Name: "a", Dur: 1, Deps: []int{1}},
		{Name: "b", Dur: 1, Deps: []int{0}},
	}
	if _, err := schedule(tasks, nil); err == nil {
		t.Fatal("cyclic task graph accepted")
	}
}

func TestBadDeps(t *testing.T) {
	if _, err := schedule([]Task{{Name: "a", Deps: []int{5}}}, nil); err == nil {
		t.Fatal("out-of-range dep accepted")
	}
	if _, err := schedule([]Task{{Name: "a", Deps: []int{0}}}, nil); err == nil {
		t.Fatal("self dep accepted")
	}
	if _, err := schedule([]Task{{Name: "a", Dur: -1}}, nil); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestZeroDurationCascade(t *testing.T) {
	tasks := []Task{
		{Name: "a", Dur: 0},
		{Name: "b", Dur: 0, Deps: []int{0}},
		{Name: "c", Dur: 5, Deps: []int{1}},
	}
	r, err := schedule(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 5 || r.Start[2] != 0 {
		t.Fatalf("zero-duration tasks must cascade: %+v", r)
	}
}

func TestCriticalPath(t *testing.T) {
	tasks := []Task{
		{Name: "a", Dur: 5},
		{Name: "b", Dur: 3, Deps: []int{0}},
		{Name: "c", Dur: 9},
	}
	cp, err := criticalPath(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 9 {
		t.Fatalf("CriticalPath = %d, want 9", cp)
	}
}

func TestPropMakespanAtLeastCriticalPath(t *testing.T) {
	f := func(durs [6]uint8, pins [6]uint8) bool {
		tasks := make([]Task, 6)
		for i := range tasks {
			tasks[i] = Task{
				Name: string(rune('a' + i)),
				Dur:  int(durs[i] % 20),
				Pins: map[int]int{0: int(pins[i] % 10)},
			}
			if i >= 2 {
				tasks[i].Deps = []int{i - 2}
			}
		}
		r, err := schedule(tasks, map[int]int{0: 10})
		if err != nil {
			return false
		}
		cp, _ := criticalPath(tasks)
		if r.Makespan < cp {
			return false
		}
		// precedence holds
		for i, tk := range tasks {
			for _, d := range tk.Deps {
				if r.Start[i] < r.Start[d]+tasks[d].Dur {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPinCapacityNeverExceeded(t *testing.T) {
	f := func(durs [5]uint8, pins [5]uint8) bool {
		tasks := make([]Task, 5)
		for i := range tasks {
			tasks[i] = Task{
				Name: string(rune('a' + i)),
				Dur:  int(durs[i]%6) + 1,
				Pins: map[int]int{0: int(pins[i] % 8)},
			}
		}
		capacity := map[int]int{0: 10}
		r, err := schedule(tasks, capacity)
		if err != nil {
			return false
		}
		// replay usage over time
		end := r.Makespan
		for t := 0; t < end; t++ {
			use := 0
			for i, tk := range tasks {
				if r.Start[i] <= t && t < r.Start[i]+tk.Dur {
					use += tk.Pins[0]
				}
			}
			if use > capacity[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
