// Package urgency implements the urgency scheduling step of CHOP's system
// integration (paper section 2.5): given the delays of all tasks (partition
// executions and data transfers) and the pin capacity of every chip, it
// builds a task schedule that shares chip pins feasibly while minimizing the
// overall system delay. The urgency measure is the task's critical-path
// distance to the schedule's end, as in Sehwa (paper reference [8]).
//
// The task graph — dependencies, topological order and which resources
// each task occupies — is compiled once (Compile); a Scheduler then
// schedules it for any number of duration and width vectors, reusing its
// buffers, so a call allocates nothing.
package urgency

import "fmt"

// TaskSpec is one schedulable unit of a task graph: a partition execution
// or a data transfer.
type TaskSpec struct {
	Name string
	// Deps lists the indices of tasks that must finish before this one
	// starts.
	Deps []int
	// Uses lists the distinct resource indices the task occupies while it
	// runs. It holds the same amount of each, its per-call width
	// (Scheduler.Run): a transfer's bus width on every chip it spans, one
	// port of every memory block a partition accesses.
	Uses []int
}

// Resource is one capacity-limited resource: a chip's transfer pins or a
// memory block's ports.
type Resource struct {
	// ID names the resource in error messages ("chip <ID>").
	ID int
	// Cap is the capacity: pins available, or ports.
	Cap int
}

// Graph is a compiled task graph. It is read-only after Compile and may be
// shared by any number of Schedulers.
type Graph struct {
	names []string
	// succ lists task i's successors as succ[succOff[i]:succOff[i+1]].
	succOff, succ []int
	indeg         []int
	// order is a topological order of the tasks.
	order []int
	// use lists task i's resources as useRes[useOff[i]:useOff[i+1]].
	useOff, useRes []int
	res            []Resource
}

// Compile checks and compiles a task graph over the given resources. It
// returns an error when a dependency is out of range or on the task
// itself, when a use names no resource, or when the graph is cyclic.
func Compile(tasks []TaskSpec, res []Resource) (*Graph, error) {
	n := len(tasks)
	g := &Graph{
		names:   make([]string, n),
		succOff: make([]int, n+1),
		indeg:   make([]int, n),
		useOff:  make([]int, n+1),
		res:     append([]Resource(nil), res...),
	}
	for i, t := range tasks {
		g.names[i] = t.Name
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("urgency: task %q has dependency %d out of range", t.Name, d)
			}
			if d == i {
				return nil, fmt.Errorf("urgency: task %q depends on itself", t.Name)
			}
			g.succOff[d+1]++
			g.indeg[i]++
		}
		for _, r := range t.Uses {
			if r < 0 || r >= len(res) {
				return nil, fmt.Errorf("urgency: task %q uses resource %d out of range", t.Name, r)
			}
		}
		g.useRes = append(g.useRes, t.Uses...)
		g.useOff[i+1] = len(g.useRes)
	}
	for i := 0; i < n; i++ {
		g.succOff[i+1] += g.succOff[i]
	}
	g.succ = make([]int, g.succOff[n])
	fill := append([]int(nil), g.succOff[:n]...)
	for i, t := range tasks {
		for _, d := range t.Deps {
			g.succ[fill[d]] = i
			fill[d]++
		}
	}
	// Kahn's algorithm; the order only fixes the priority recurrence, so
	// any topological order gives the same schedule.
	deg := append([]int(nil), g.indeg...)
	for i, d := range deg {
		if d == 0 {
			g.order = append(g.order, i)
		}
	}
	for k := 0; k < len(g.order); k++ {
		for _, s := range g.succ[g.succOff[g.order[k]]:g.succOff[g.order[k]+1]] {
			if deg[s]--; deg[s] == 0 {
				g.order = append(g.order, s)
			}
		}
	}
	if len(g.order) != n {
		return nil, fmt.Errorf("urgency: task graph has a cycle")
	}
	return g, nil
}

// Len returns the task count.
func (g *Graph) Len() int { return len(g.names) }

// Name returns task i's name.
func (g *Graph) Name(i int) string { return g.names[i] }

// Result is the computed task schedule.
type Result struct {
	// Start holds each task's start time in main-clock cycles.
	Start []int
	// Makespan is the system delay: the latest finish time.
	Makespan int
}

// Stats reports the effort of one scheduling call, for the observability
// layer: the integrator feeds these into its metrics registry so urgency
// scheduling cost shows up in per-stage breakdowns.
type Stats struct {
	// Tasks is the number of tasks scheduled.
	Tasks int
	// Cycles is the length of the cycle-by-cycle schedule the task graph
	// defines: the last launch time plus one.
	Cycles int
	// Makespan duplicates Result.Makespan for convenience.
	Makespan int
}

// Scheduler schedules one compiled graph with reusable buffers. It is not
// safe for concurrent use; give each goroutine its own.
type Scheduler struct {
	g                                   *Graph
	start, finish, urg, unmet, earliest []int
	free, ready, next, active           []int
}

// NewScheduler returns a Scheduler for g.
func NewScheduler(g *Graph) *Scheduler {
	n := g.Len()
	return &Scheduler{
		g:     g,
		start: make([]int, n), finish: make([]int, n), urg: make([]int, n),
		unmet: make([]int, n), earliest: make([]int, n),
		free:  make([]int, len(g.res)),
		ready: make([]int, 0, n), next: make([]int, 0, n), active: make([]int, 0, n),
	}
}

// Run computes the urgency-driven resource-constrained schedule for task
// durations dur (main-clock cycles, >= 0) and widths width (the amount of
// each of its resources a task holds while it runs). Tasks launch in
// decreasing urgency, ties to the lower index, whenever their
// predecessors have finished and every resource they use has room; a
// zero-duration task releases its resources at once, so its successors
// cascade within the same cycle. Instead of stepping cycle by cycle, Run
// jumps from one event to the next: the earliest finish of a running task,
// or the earliest time a ready task's predecessors allow. It returns an
// error when a duration is negative, or a task that uses resources has a
// negative width or one exceeding a resource's capacity. Result.Start is
// the Scheduler's buffer, valid until the next call.
func (s *Scheduler) Run(dur, width []int) (Result, Stats, error) {
	g := s.g
	n := g.Len()
	if n == 0 {
		return Result{}, Stats{}, nil
	}
	for i := 0; i < n; i++ {
		if dur[i] < 0 {
			return Result{}, Stats{}, fmt.Errorf("urgency: task %q has negative duration", g.names[i])
		}
		for _, ri := range g.useRes[g.useOff[i]:g.useOff[i+1]] {
			r := g.res[ri]
			if width[i] > r.Cap {
				return Result{}, Stats{}, fmt.Errorf("urgency: task %q needs %d pins on chip %d (capacity %d)",
					g.names[i], width[i], r.ID, r.Cap)
			}
			if width[i] < 0 {
				return Result{}, Stats{}, fmt.Errorf("urgency: task %q has negative pin demand", g.names[i])
			}
		}
	}
	// Urgency: longest path (inclusive) from the task to any sink.
	for k := n - 1; k >= 0; k-- {
		id := g.order[k]
		u := 0
		for _, su := range g.succ[g.succOff[id]:g.succOff[id+1]] {
			u = max(u, s.urg[su])
		}
		s.urg[id] = u + dur[id]
	}
	for i, r := range g.res {
		s.free[i] = r.Cap
	}
	copy(s.unmet, g.indeg)
	ready := s.ready[:0]
	for i := 0; i < n; i++ {
		s.start[i], s.earliest[i] = -1, 0
		if s.unmet[i] == 0 {
			ready = append(ready, i)
		}
	}
	next, active := s.next[:0], s.active[:0]
	scheduled, makespan, last := 0, 0, 0
	for t := 0; ; {
		// Retire finished tasks, releasing their resources.
		kept := active[:0]
		for _, id := range active {
			if s.finish[id] > t {
				kept = append(kept, id)
			} else {
				s.release(id, width[id])
			}
		}
		active = kept
		// Launch ready tasks, most urgent first; sweep until fixpoint so
		// zero-duration tasks cascade within the same cycle. Tasks readied
		// during a sweep wait for the next one.
		for progress := true; progress; {
			progress = false
			s.sortReady(ready)
			next = next[:0]
			for _, id := range ready {
				if s.earliest[id] > t || !s.fits(id, width[id]) {
					next = append(next, id)
					continue
				}
				s.release(id, -width[id]) // take its resources
				s.start[id], s.finish[id] = t, t+dur[id]
				makespan = max(makespan, s.finish[id])
				if dur[id] > 0 {
					active = append(active, id)
				} else {
					s.release(id, width[id])
				}
				scheduled++
				last = t
				progress = true
				for _, su := range g.succ[g.succOff[id]:g.succOff[id+1]] {
					s.earliest[su] = max(s.earliest[su], s.finish[id])
					if s.unmet[su]--; s.unmet[su] == 0 {
						next = append(next, su)
					}
				}
			}
			ready, next = next, ready
		}
		if scheduled == n {
			break
		}
		// Nothing more can launch before the next event.
		nt := -1
		for _, id := range active {
			if nt < 0 || s.finish[id] < nt {
				nt = s.finish[id]
			}
		}
		for _, id := range ready {
			if e := s.earliest[id]; e > t && (nt < 0 || e < nt) {
				nt = e
			}
		}
		if nt < 0 {
			return Result{}, Stats{}, fmt.Errorf("urgency: schedule did not converge after %d cycles", t)
		}
		t = nt
	}
	s.ready, s.next, s.active = ready[:0], next[:0], active[:0]
	return Result{Start: s.start, Makespan: makespan},
		Stats{Tasks: n, Cycles: last + 1, Makespan: makespan}, nil
}

// fits reports whether every resource task id uses has room for w more.
func (s *Scheduler) fits(id, w int) bool {
	g := s.g
	for _, r := range g.useRes[g.useOff[id]:g.useOff[id+1]] {
		if s.free[r] < w {
			return false
		}
	}
	return true
}

// release returns w of each of task id's resources (takes them when w is
// negative).
func (s *Scheduler) release(id, w int) {
	g := s.g
	for _, r := range g.useRes[g.useOff[id]:g.useOff[id+1]] {
		s.free[r] += w
	}
}

// sortReady orders ready tasks by decreasing urgency, ties to the lower
// index. Insertion sort: the list is short and mostly sorted already.
func (s *Scheduler) sortReady(ready []int) {
	for i := 1; i < len(ready); i++ {
		id := ready[i]
		j := i
		for ; j > 0 && s.before(id, ready[j-1]); j-- {
			ready[j] = ready[j-1]
		}
		ready[j] = id
	}
}

func (s *Scheduler) before(a, b int) bool {
	if s.urg[a] != s.urg[b] {
		return s.urg[a] > s.urg[b]
	}
	return a < b
}
