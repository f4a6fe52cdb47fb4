package broadcast

import "fragdb/internal/simtime"

// SchedulerTimer adapts a simtime.Scheduler to the Timer interface.
// Delays are the scheduler's nanoseconds: virtual in simulation, the
// wall clock's under an rtnet.Loop.
type SchedulerTimer struct {
	S *simtime.Scheduler
}

// AfterFunc schedules fn after d scheduler nanoseconds.
func (t SchedulerTimer) AfterFunc(d int64, fn func()) (cancel func()) {
	e := t.S.After(simtime.Duration(d), fn)
	return func() { t.S.Cancel(e) }
}
