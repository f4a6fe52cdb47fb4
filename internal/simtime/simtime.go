// Package simtime provides a deterministic discrete-event simulation
// kernel: a virtual clock, an event queue ordered by virtual time, and
// cancellable timers.
//
// All experiments and tests in this repository run on virtual time so
// that every run is exactly reproducible. A Scheduler is single-threaded:
// events execute one at a time, in (time, insertion) order, on the
// goroutine that calls Run, Step, or RunUntil. Event handlers may freely
// schedule further events.
package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start
// of the simulation. The zero Time is the beginning of the simulation.
type Time time.Duration

// Duration re-exports time.Duration for scheduling arithmetic on
// virtual time.
type Duration = time.Duration

// String formats the virtual time like a duration offset, e.g. "150ms".
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the virtual time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is a scheduled callback. It is returned by the scheduling
// methods so callers can cancel it before it fires.
type Event struct {
	when    Time
	seq     uint64 // tie-breaker: insertion order
	fn      func()
	index   int // heap index; -1 once popped or cancelled
	cancled bool
	// posted marks an event Post made: no caller holds it, so it is
	// reused once it has run.
	posted bool
}

// When reports the virtual time at which the event fires (or would have
// fired, if cancelled).
func (e *Event) When() Time { return e.when }

// eventQueue is a min-heap of events ordered by (when, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Scheduler is a deterministic discrete-event scheduler with a virtual
// clock. The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	rng     *rand.Rand

	// processed counts events that have been executed.
	processed uint64

	// free holds posted events that have run, for Post to reuse.
	free []*Event
}

// NewScheduler returns a scheduler whose clock reads zero and whose
// random source is seeded with seed. All randomness used by a
// simulation should flow through Rand so runs are reproducible.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet executed.
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn to run at virtual time t. Scheduling in the past (or
// at the present instant) panics: discrete-event causality would be
// violated silently otherwise.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", t, s.now))
	}
	e := &Event{when: t, fn: fn}
	s.push(e)
	return e
}

// push enters e in the queue, numbering it for the tie-break.
func (s *Scheduler) push(e *Event) {
	e.seq = s.nextSeq
	s.nextSeq++
	heap.Push(&s.queue, e)
}

// After schedules fn to run d after the current virtual time. A
// non-positive d schedules the event at the current instant (it runs
// after all events already queued for this instant).
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Post is After for a caller that keeps no handle on the event: it
// cannot be cancelled, so once it has run the scheduler reuses it for
// a later Post instead of allocating another.
func (s *Scheduler) Post(d Duration, fn func()) {
	var e *Event
	if k := len(s.free); k > 0 {
		e, s.free = s.free[k-1], s.free[:k-1]
	} else {
		e = &Event{posted: true}
	}
	e.when, e.fn = s.now.Add(max(d, 0)), fn
	s.push(e)
}

// Cancel removes a scheduled event. It is a no-op if the event has
// already fired or been cancelled. It reports whether the event was
// actually cancelled by this call.
func (s *Scheduler) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.cancled {
		return false
	}
	e.cancled = true
	heap.Remove(&s.queue, e.index)
	return true
}

// NextEventTime returns the firing time of the earliest pending event.
// The second result is false when no events are pending. Real-time
// drivers use this to sleep exactly until the next due event instead of
// polling.
func (s *Scheduler) NextEventTime() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].when, true
}

// Step executes the single earliest pending event, advancing the clock
// to its firing time (an event RunDue left late runs at the current
// time). It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	if e.when > s.now {
		s.now = e.when
	}
	s.processed++
	e.fn()
	if e.posted {
		e.fn = nil
		s.free = append(s.free, e)
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with firing time <= t, then advances the
// clock to exactly t. Events scheduled beyond t remain pending.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.queue) > 0 && s.queue[0].when <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunDue advances the clock to t and then executes, in order, the
// events due by then that were already pending when it was called;
// events they schedule wait for the next call, even when due at once.
// An event that runs after its firing time runs late, at the clock's
// reading: the clock never moves backwards, so At never sees the past.
// It reports whether due events remain. A wall-clock driver calls it
// once per pass with the wall offset, so a chain of same-instant
// continuations can neither starve the work the driver takes between
// passes nor stop the clock, and the timers with it.
func (s *Scheduler) RunDue(t Time) (more bool) {
	if t > s.now {
		s.now = t
	}
	mark := s.nextSeq
	for len(s.queue) > 0 && s.queue[0].when <= s.now && s.queue[0].seq < mark {
		s.Step()
	}
	return len(s.queue) > 0 && s.queue[0].when <= s.now
}

// RunFor executes events for the next d of virtual time, as RunUntil.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }
