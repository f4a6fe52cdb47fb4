package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterVec(t *testing.T) {
	var c CounterVec
	a := Label{Frag: "F1", Node: 0}
	b := Label{Frag: "F1", Node: 2}
	c.Inc(a)
	c.Add(a, 4)
	c.Inc(b)
	if got := c.Get(a); got != 5 {
		t.Fatalf("Get(a) = %d, want 5", got)
	}
	if got := c.Get(b); got != 1 {
		t.Fatalf("Get(b) = %d, want 1", got)
	}
	if got := c.Get(Label{Frag: "F2"}); got != 0 {
		t.Fatalf("Get(untouched) = %d, want 0", got)
	}
	s := c.Samples()
	if len(s) != 2 || s[0].Label != a || s[1].Label != b {
		t.Fatalf("Samples order wrong: %+v", s)
	}
}

func TestCounterVecSampleOrder(t *testing.T) {
	var c CounterVec
	labels := []Label{
		{Frag: "Z", Node: 1}, {Frag: "A", Node: 3},
		{Frag: "A", Node: 0}, {Frag: "M", Node: 2},
	}
	for _, l := range labels {
		c.Inc(l)
	}
	s := c.Samples()
	for i := 1; i < len(s); i++ {
		if !labelLess(s[i-1].Label, s[i].Label) {
			t.Fatalf("samples not sorted at %d: %+v", i, s)
		}
	}
}

func TestCauseVec(t *testing.T) {
	var c CauseVec
	l := Label{Frag: "F1", Node: 1}
	c.Inc(l, "timeout")
	c.Inc(l, "timeout")
	c.Inc(l, "deadlock")
	if got := c.Get(l, "timeout"); got != 2 {
		t.Fatalf("Get(timeout) = %d, want 2", got)
	}
	s := c.Samples()
	if len(s) != 2 || s[0].Cause != "deadlock" || s[1].Cause != "timeout" {
		t.Fatalf("cause samples wrong: %+v", s)
	}
}

func TestHistogramVec(t *testing.T) {
	var h HistogramVec
	l := Label{Frag: "F1", Node: 0}
	h.Observe(l, 100*time.Microsecond)
	h.Observe(l, 200*time.Microsecond)
	if got := h.Get(l).Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if h.Get(Label{Frag: "F2"}) != nil {
		t.Fatal("untouched label should return nil histogram")
	}
	s := h.Samples()
	if len(s) != 1 || s[0].Snap.Count != 2 {
		t.Fatalf("hist samples wrong: %+v", s)
	}
}

func TestRegistryFragInfo(t *testing.T) {
	r := NewRegistry()
	r.SetFragInfo("CTR(1)", FragInfo{Option: "unrestricted", Commutative: true})
	r.SetFragInfo("BALANCES", FragInfo{Option: "read-locks"})
	r.SetFragInfo("CTR(1)", FragInfo{Option: "unrestricted", Commutative: true}) // idempotent
	infos := r.FragInfos()
	if len(infos) != 2 {
		t.Fatalf("FragInfos len = %d, want 2", len(infos))
	}
	if infos[0].Frag != "BALANCES" || infos[1].Frag != "CTR(1)" {
		t.Fatalf("FragInfos order wrong: %+v", infos)
	}
	if !infos[1].Info.Commutative {
		t.Fatal("CTR(1) should be commutative")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	labels := []Label{{Frag: "A", Node: 0}, {Frag: "B", Node: 1}, {Frag: "C", Node: 2}}
	const per = 500
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l := labels[(g+i)%len(labels)]
				r.IncRead(l.Frag, l.Node)
				r.Commits.Inc(l)
				r.ObserveCommitLatency(l.Frag, l.Node, time.Duration(i)*time.Microsecond)
				r.IncAbort(l.Frag, l.Node, "timeout")
			}
		}(g)
	}
	wg.Wait()
	var reads, commits, aborts, lat uint64
	for _, s := range r.Reads.Samples() {
		reads += s.Value
	}
	for _, s := range r.Commits.Samples() {
		commits += s.Value
	}
	for _, s := range r.Aborts.Samples() {
		aborts += s.Value
	}
	for _, s := range r.CommitLatency.Samples() {
		lat += s.Snap.Count
	}
	want := uint64(8 * per)
	if reads != want || commits != want || aborts != want || lat != want {
		t.Fatalf("totals reads=%d commits=%d aborts=%d lat=%d, want all %d",
			reads, commits, aborts, lat, want)
	}
}
