package rtnet

import (
	"sync"
	"time"

	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// Loop drives a simtime.Scheduler on the wall clock: virtual time is
// the wall time elapsed since Start, and every scheduled event fires
// (on the loop goroutine) once the wall clock passes its virtual firing
// time. This is how the deterministic engine stack runs in a real
// deployment without any changes: the engine keeps scheduling timeouts
// and leases on its virtual clock, and the loop makes that clock track
// reality. An event due now runs now; the loop sleeps only when the
// next event lies in the future and nothing is injected.
//
// The scheduler itself stays single-threaded, exactly as in the
// simulator: only the loop goroutine touches it. External events — a
// TCP frame arriving, an HTTP request submitting a transaction — enter
// through Inject, which enqueues a closure for the loop goroutine to
// run between events. The closure may use the scheduler freely.
//
// The loop works in passes, and a pass is bounded on both sides: it
// sets the clock to the wall, runs the events that were due and pending
// when it began (not the ones they schedule), then the closures that
// were injected when it reached them. With zero-cost operations the
// engine chains same-instant events (After(0) continuations); bounding
// the pass is what keeps such a chain from starving client submissions
// and TCP deliveries, and a burst of injections from starving the
// engine. Setting the clock every pass, with late events running at the
// pass's time (simtime.Scheduler.RunDue), keeps timeouts, leases and
// gossip on real time however long a chain lasts.
type Loop struct {
	sched   *simtime.Scheduler
	inject  chan job
	stop    chan struct{}
	done    chan struct{}
	started time.Time

	stopOnce sync.Once
}

// job is one injected unit of work: fn, or when fn is nil the
// transport delivery h(from, payload), which Deliver queues without
// wrapping it in a closure.
type job struct {
	fn      func()
	h       netsim.Handler
	from    netsim.NodeID
	payload any
}

func (j job) run() {
	if j.fn != nil {
		j.fn()
		return
	}
	j.h(j.from, j.payload)
}

// injectBuffer bounds how many external events may queue while the loop
// is busy; Inject blocks (applying backpressure) when it is full.
const injectBuffer = 4096

// maxIdleWait bounds how long the loop sleeps when the scheduler has no
// pending events; an injection or Stop wakes it sooner.
const maxIdleWait = 250 * time.Millisecond

// NewLoop wraps a scheduler. The scheduler must not be used from any
// other goroutine once Start is called, except through Inject.
func NewLoop(sched *simtime.Scheduler) *Loop {
	return &Loop{
		sched:  sched,
		inject: make(chan job, injectBuffer),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start begins driving the scheduler on a new goroutine. Virtual time
// zero corresponds to the moment Start is called.
func (l *Loop) Start() {
	l.started = time.Now()
	go l.run()
}

// Inject schedules fn to run on the loop goroutine in the next pass,
// after the events due when that pass began, with the virtual clock at
// the pass's wall offset. It blocks when the loop is saturated and
// reports false (without running fn) once the loop is stopped.
func (l *Loop) Inject(fn func()) bool { return l.enqueue(job{fn: fn}) }

// Deliver is Inject(func() { h(from, payload) }) without the closure:
// it queues a transport delivery to run on the loop goroutine.
func (l *Loop) Deliver(h netsim.Handler, from netsim.NodeID, payload any) bool {
	return l.enqueue(job{h: h, from: from, payload: payload})
}

func (l *Loop) enqueue(j job) bool {
	select {
	case <-l.stop:
		return false
	default:
	}
	select {
	case l.inject <- j:
		return true
	case <-l.stop:
		return false
	}
}

// Stop halts the loop and waits for the loop goroutine to exit. Pending
// injected closures that were not yet executed are dropped. Stop is
// idempotent.
func (l *Loop) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// Elapsed returns the wall time since Start — the loop's target virtual
// time.
func (l *Loop) Elapsed() time.Duration { return time.Since(l.started) }

func (l *Loop) run() {
	defer close(l.done)
	timer := time.NewTimer(maxIdleWait)
	defer timer.Stop()
	var woke job // the job that ended a sleep; it runs first in the next pass
	woken := false
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		more := l.sched.RunDue(simtime.Time(l.Elapsed()))
		ran := l.drain(woke, woken)
		woke, woken = job{}, false
		if more || ran {
			continue
		}
		wait := maxIdleWait
		if next, ok := l.sched.NextEventTime(); ok {
			if until := time.Duration(next) - l.Elapsed(); until < wait {
				wait = until
			}
		}
		if wait <= 0 {
			continue
		}
		// go.mod predates Go 1.23's timer channels: a timer that fired
		// while the loop was busy still holds a value, so drain it before
		// re-arming or the next sleep ends at once.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-l.stop:
			return
		case woke = <-l.inject:
			woken = true
		case <-timer.C:
		}
	}
}

// drain runs first (if woken) and then the jobs already injected when
// it is called — not those injected while it runs, which wait for the
// next pass. It reports whether it ran any.
func (l *Loop) drain(first job, woken bool) bool {
	n := len(l.inject)
	if woken {
		first.run()
	}
	for i := 0; i < n; i++ {
		(<-l.inject).run()
	}
	return woken || n > 0
}

// ExecTransport wraps a Transport so that every delivered handler runs
// on Loop's goroutine, making deliveries single-threaded on the
// engine's scheduler goroutine no matter which goroutine the
// underlying transport delivers on. Sends pass through unchanged.
// Deliveries a stopped loop refuses are dropped, which is within the
// transport's best-effort contract.
type ExecTransport struct {
	netsim.Transport
	Loop *Loop
}

// SetHandler wraps h so invocations are routed through Loop.Deliver.
func (e ExecTransport) SetHandler(node netsim.NodeID, h netsim.Handler) {
	loop := e.Loop
	e.Transport.SetHandler(node, func(from netsim.NodeID, payload any) {
		loop.Deliver(h, from, payload)
	})
}
