package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// fixedClock returns a now func that advances 1ms per call.
func fixedClock() func() simtime.Time {
	var t simtime.Time
	return func() simtime.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: KSubmit}) // must not panic
	if r.Enabled() || r.Len() != 0 || r.Total() != 0 {
		t.Error("nil recorder not inert")
	}
	if r.Tail(5) != nil || r.Dump(5) != "" {
		t.Error("nil recorder returned data")
	}
	if NewRecorder(3, 0, fixedClock()) != nil {
		t.Error("capacity 0 should yield the nil (disabled) recorder")
	}
}

func TestEmitStampsAndOrders(t *testing.T) {
	r := NewRecorder(2, 8, fixedClock())
	r.Emit(Event{Kind: KSubmit, Txn: txn.ID{Origin: 2, Seq: 1}})
	r.Emit(Event{Kind: KCommit, Txn: txn.ID{Origin: 2, Seq: 1}, Dur: 5 * time.Millisecond})
	got := r.Tail(0)
	if len(got) != 2 {
		t.Fatalf("tail len = %d", len(got))
	}
	if got[0].Kind != KSubmit || got[1].Kind != KCommit {
		t.Errorf("order: %v, %v", got[0].Kind, got[1].Kind)
	}
	for i, e := range got {
		if e.Node != 2 {
			t.Errorf("event %d node = %d, want 2 (stamped)", i, e.Node)
		}
	}
	if !(got[0].T < got[1].T) {
		t.Errorf("timestamps not increasing: %v then %v", got[0].T, got[1].T)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(0, 4, fixedClock())
	for i := 1; i <= 10; i++ {
		r.Emit(Event{Kind: KSubmit, Seq: uint64(i)})
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	tail := r.Tail(0)
	for i, want := range []uint64{7, 8, 9, 10} {
		if tail[i].Seq != want {
			t.Errorf("tail[%d].Seq = %d, want %d", i, tail[i].Seq, want)
		}
	}
	// A partial tail returns the newest suffix.
	last2 := r.Tail(2)
	if len(last2) != 2 || last2[0].Seq != 9 || last2[1].Seq != 10 {
		t.Errorf("Tail(2) = %v", last2)
	}
	if !strings.Contains(r.Dump(0), "6 earlier events overwritten") {
		t.Errorf("Dump missing drop summary:\n%s", r.Dump(0))
	}
}

// TestRingGrowsToCapacity: a recorder holds what it has recorded, not
// its capacity, and keeps the same contents as a full-size ring while
// it grows, wraps and overwrites.
func TestRingGrowsToCapacity(t *testing.T) {
	const capacity = 300
	r := NewRecorder(0, capacity, fixedClock())
	for i := 1; i <= 1000; i++ {
		r.Emit(Event{Kind: KSubmit, Seq: uint64(i)})
		if i == 10 && cap(r.buf) >= capacity {
			t.Fatalf("after 10 events the ring holds room for %d", cap(r.buf))
		}
		if i != 100 && i != 1000 {
			continue
		}
		tail := r.Tail(0)
		first := uint64(max(1, i-capacity+1))
		if len(tail) != min(i, capacity) || tail[0].Seq != first || tail[len(tail)-1].Seq != uint64(i) {
			t.Fatalf("after %d events: %d in the tail, from %d to %d", i, len(tail), tail[0].Seq, tail[len(tail)-1].Seq)
		}
		for k := 1; k < len(tail); k++ {
			if tail[k].Seq != tail[k-1].Seq+1 {
				t.Fatalf("after %d events: tail[%d] = %d follows %d", i, k, tail[k].Seq, tail[k-1].Seq)
			}
		}
	}
	if cap(r.buf) != capacity {
		t.Errorf("a full ring holds room for %d events, want %d", cap(r.buf), capacity)
	}
}

func TestConcurrentEmit(t *testing.T) {
	var mu sync.Mutex
	var tick simtime.Time
	now := func() simtime.Time {
		mu.Lock()
		defer mu.Unlock()
		tick = tick.Add(1)
		return tick
	}
	r := NewRecorder(1, 64, now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(Event{Kind: KQuasiApply})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 4000 || r.Len() != 64 {
		t.Errorf("total=%d len=%d", r.Total(), r.Len())
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		T: simtime.Time(1500 * time.Millisecond), Node: 1, Kind: KWound,
		Txn:   txn.ID{Origin: 1, Seq: 7},
		Other: txn.ID{Origin: 0, Seq: 3},
		Frag:  "accounts", Pos: txn.FragPos{Epoch: 1, Seq: 4},
		Peer: 0, HasPeer: true, Err: "wounded", Note: "ctx",
	}
	s := e.String()
	for _, want := range []string{"n1", "wound", "T(N1#7)", "other=T(N0#3)",
		"frag=accounts", "pos=e1#4", "peer=n0", `err="wounded"`, "(ctx)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	// Zero-valued optional fields stay out of the line.
	minimal := Event{Kind: KSubmit, Txn: txn.ID{Origin: 0, Seq: 1}}.String()
	for _, bad := range []string{"other=", "frag=", "peer=", "err=", "seq="} {
		if strings.Contains(minimal, bad) {
			t.Errorf("minimal String %q contains %q", minimal, bad)
		}
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := KNone; k < kindCount; k++ {
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", uint8(k))
		}
	}
	if s := Kind(200).String(); s != "kind(200)" {
		t.Errorf("unknown kind String = %q", s)
	}
}

func TestKindJSON(t *testing.T) {
	b, err := json.Marshal(Event{Kind: KQuasiSend, Txn: txn.ID{Origin: 1, Seq: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"quasi-send"`) {
		t.Errorf("JSON = %s", b)
	}
}

func TestDumpAll(t *testing.T) {
	r0 := NewRecorder(0, 4, fixedClock())
	r1 := NewRecorder(1, 4, fixedClock())
	r0.Emit(Event{Kind: KSubmit})
	r1.Emit(Event{Kind: KCommit})
	out := DumpAll([]*Recorder{r0, nil, r1}, 10)
	for _, want := range []string{"node 0 trace", "node 1 trace", "submit", "commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("DumpAll missing %q:\n%s", want, out)
		}
	}
}
