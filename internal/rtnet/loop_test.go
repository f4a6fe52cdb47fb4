package rtnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragdb/internal/simtime"
)

func TestLoopFiresScheduledEvents(t *testing.T) {
	sched := simtime.NewScheduler(1)
	l := NewLoop(sched)
	l.Start()
	defer l.Stop()

	fired := make(chan simtime.Time, 3)
	ok := l.Inject(func() {
		// Schedule out of order; they must fire in virtual-time order.
		sched.After(20*time.Millisecond, func() { fired <- sched.Now() })
		sched.After(5*time.Millisecond, func() { fired <- sched.Now() })
		sched.After(10*time.Millisecond, func() { fired <- sched.Now() })
	})
	if !ok {
		t.Fatal("Inject refused on a running loop")
	}
	var times []simtime.Time
	for i := 0; i < 3; i++ {
		select {
		case ts := <-fired:
			times = append(times, ts)
		case <-time.After(5 * time.Second):
			t.Fatalf("timer %d never fired", i)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("events fired out of order: %v", times)
		}
	}
}

func TestLoopClockTracksWall(t *testing.T) {
	sched := simtime.NewScheduler(1)
	l := NewLoop(sched)
	l.Start()
	defer l.Stop()

	read := func() simtime.Time {
		ch := make(chan simtime.Time, 1)
		l.Inject(func() { ch <- sched.Now() })
		return <-ch
	}
	t0 := read()
	time.Sleep(50 * time.Millisecond)
	t1 := read()
	if d := t1.Sub(t0); d < 40*time.Millisecond {
		t.Fatalf("virtual clock advanced only %v across a 50ms wall sleep", d)
	}
}

func TestLoopStopDropsPendingAndRefusesInject(t *testing.T) {
	sched := simtime.NewScheduler(1)
	l := NewLoop(sched)
	l.Start()

	var fired atomic.Int64
	l.Inject(func() {
		sched.After(time.Hour, func() { fired.Add(1) })
	})
	l.Stop()
	l.Stop() // idempotent
	if l.Inject(func() {}) {
		t.Fatal("Inject accepted after Stop")
	}
	if fired.Load() != 0 {
		t.Fatal("hour-away event fired during Stop")
	}
}

// TestLoopInjectionNotStarvedByEventChain: with zero-cost operations
// the engine chains same-instant events, each scheduling the next with
// After(0). A closure injected while such a chain runs must run once
// at most the events pending at its injection — width here — have run,
// plus one more pass of them if it arrived after the pass reached the
// injected closures. Count-based: the chain's budget only bounds the
// test where the chain starves injections outright.
func TestLoopInjectionNotStarvedByEventChain(t *testing.T) {
	sched := simtime.NewScheduler(1)
	l := NewLoop(sched)
	l.Start()
	defer l.Stop()

	const width, budget = 8, 1 << 20
	var ran atomic.Int64
	var tick func()
	tick = func() {
		if ran.Add(1) < budget {
			sched.After(0, tick)
		}
	}
	l.Inject(func() {
		for i := 0; i < width; i++ {
			sched.After(0, tick)
		}
	})
	for probe := 0; probe < 100; probe++ {
		got := make(chan int64, 1)
		l.Inject(func() { got <- ran.Load() })
		at := ran.Load()
		if d := <-got - at; d > 2*width {
			t.Fatalf("probe %d ran after %d chain events, want at most %d", probe, d, 2*width)
		}
	}
}

// TestLoopInjectConcurrency hammers Inject from many goroutines while
// the injected closures mutate scheduler-owned state without locks —
// single-threaded execution on the loop goroutine is what makes that
// safe. Run under -race.
func TestLoopInjectConcurrency(t *testing.T) {
	sched := simtime.NewScheduler(1)
	l := NewLoop(sched)
	l.Start()

	counter := 0 // loop-goroutine state: only injected closures touch it
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Inject(func() { counter++ })
			}
		}()
	}
	wg.Wait()
	got := make(chan int, 1)
	l.Inject(func() { got <- counter })
	select {
	case n := <-got:
		if n != goroutines*per {
			t.Fatalf("counter = %d, want %d", n, goroutines*per)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loop never drained the injected closures")
	}
	l.Stop()
}
