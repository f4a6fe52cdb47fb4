package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30*Time(time.Millisecond), func() { got = append(got, 3) })
	s.At(10*Time(time.Millisecond), func() { got = append(got, 1) })
	s.At(20*Time(time.Millisecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Time(time.Millisecond) {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Time(time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of insertion order: %v", got)
		}
	}
}

// TestPostOrdersAndReuses: Post and After share one insertion order at
// an instant, and a posted event that has run serves the next Post, so
// posting allocates nothing once the scheduler has a spare event.
func TestPostOrdersAndReuses(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			s.Post(time.Millisecond, func() { got = append(got, i) })
		} else {
			s.After(time.Millisecond, func() { got = append(got, i) })
		}
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("posted and scheduled events out of insertion order: %v", got)
		}
	}
	ran := 0
	fn := func() { ran++ }
	if n := testing.AllocsPerRun(100, func() { s.Post(0, fn); s.Step() }); n != 0 {
		t.Errorf("Post allocates %v times with a spare event", n)
	}
	if ran != 101 {
		t.Errorf("posted events ran %d times, want 101", ran)
	}
}

// TestRunDueRunsOnlyWhatWasPending: events scheduled by a pass wait for
// the next one even when due at once; late events run at the advanced
// clock, which never moves backwards; events not yet due stay pending.
func TestRunDueRunsOnlyWhatWasPending(t *testing.T) {
	s := NewScheduler(1)
	ms := func(n int) Time { return Time(time.Duration(n) * time.Millisecond) }
	var got []string
	note := func(name string) { got = append(got, fmt.Sprintf("%s@%v", name, s.Now())) }
	s.At(ms(1), func() {
		note("a")
		s.After(0, func() { note("a'") })
	})
	s.At(ms(2), func() { note("b") })
	s.At(ms(9), func() { note("c") })
	if more := s.RunDue(ms(5)); !more {
		t.Fatal("RunDue reported nothing due with a same-instant continuation pending")
	}
	if more := s.RunDue(ms(6)); more {
		t.Fatal("second pass left due events")
	}
	if want := "[a@5ms b@5ms a'@6ms]"; fmt.Sprint(got) != want {
		t.Fatalf("ran %v, want %s", got, want)
	}
	if next, _ := s.NextEventTime(); s.Now() != ms(6) || next != ms(9) {
		t.Fatalf("clock %v, next event %v; want 6ms and 9ms", s.Now(), next)
	}
}

func TestAfterRelativeToNow(t *testing.T) {
	s := NewScheduler(1)
	var fired Time
	s.After(10*time.Millisecond, func() {
		s.After(15*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 25*Time(time.Millisecond) {
		t.Errorf("nested After fired at %v, want 25ms", fired)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("event with negative delay never ran")
	}
	if s.Now() != 0 {
		t.Errorf("clock moved to %v for clamped event", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*Time(time.Millisecond), func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	e := s.After(time.Millisecond, func() { ran = true })
	if !s.Cancel(e) {
		t.Error("first Cancel returned false")
	}
	if s.Cancel(e) {
		t.Error("second Cancel returned true")
	}
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestCancelNilAndFired(t *testing.T) {
	s := NewScheduler(1)
	if s.Cancel(nil) {
		t.Error("Cancel(nil) returned true")
	}
	e := s.After(0, func() {})
	s.Run()
	if s.Cancel(e) {
		t.Error("Cancel of fired event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	var events []*Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.At(Time(i)*Time(time.Millisecond), func() { got = append(got, i) }))
	}
	// Cancel all odd events.
	for i := 1; i < 20; i += 2 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range got {
		if v%2 != 0 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(Time(time.Second), func() { got = append(got, 1) })
	s.At(Time(3*time.Second), func() { got = append(got, 2) })
	s.RunUntil(Time(2 * time.Second))
	if len(got) != 1 {
		t.Fatalf("events run = %d, want 1", len(got))
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(got) != 2 {
		t.Errorf("after Run, events = %d, want 2", len(got))
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(time.Second)
	s.RunFor(time.Second)
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
}

func TestProcessedAndPendingCounts(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.After(Duration(i)*time.Millisecond, func() {})
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if s.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", s.Processed())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after Run = %d, want 0", s.Pending())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewScheduler(42), NewScheduler(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

// Property: for any set of scheduled delays, events fire in sorted
// order of firing time, with insertion order breaking ties.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := NewScheduler(7)
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		for i, d := range delays {
			when := Time(d) * Time(time.Microsecond)
			i := i
			s.At(when, func() { fired = append(fired, rec{when, i}) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].when != fired[j].when {
				return fired[i].when < fired[j].when
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil never executes an event scheduled after the bound.
func TestPropertyRunUntilBound(t *testing.T) {
	f := func(delays []uint16, bound uint16) bool {
		s := NewScheduler(3)
		late := 0
		for _, d := range delays {
			when := Time(d) * Time(time.Microsecond)
			if d > bound {
				late++
			}
			s.At(when, func() {})
		}
		s.RunUntil(Time(bound) * Time(time.Microsecond))
		return s.Pending() == late
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestTimeStringAndArith(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.String() != "1.5s" {
		t.Errorf("String = %q, want 1.5s", tm.String())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Error("Add wrong")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Error("Sub wrong")
	}
}
