package workload

import (
	"errors"
	"testing"
	"time"

	"fragdb/internal/agentmove"
	"fragdb/internal/core"
	"fragdb/internal/history"
	"fragdb/internal/netsim"
)

// newAirline builds the Figure 4.3.3 database: two flights, two
// customers, four nodes, every agent at a different node.
func newAirline(t *testing.T, seed int64) *Airline {
	t.Helper()
	a, err := NewAirline(AirlineConfig{
		Cluster: core.Config{N: 4, Seed: seed},
		Flights: map[string]int64{"FL1": 10, "FL2": 10},
		FlightHome: map[string]netsim.NodeID{
			"FL1": 2, "FL2": 3,
		},
		Customers: []string{"c1", "c2"},
		CustomerHome: map[string]netsim.NodeID{
			"c1": 0, "c2": 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRequestAndGrant(t *testing.T) {
	a := newAirline(t, 1)
	cl := a.Cluster()
	defer cl.Shutdown()
	a.Request(0, "c1", "FL1", 2, nil)
	if !cl.Settle(10 * time.Second) {
		t.Fatal("settle")
	}
	a.Scan("FL1", nil)
	if !cl.Settle(10 * time.Second) {
		t.Fatal("settle 2")
	}
	if got := a.Seats(1, "c1", "FL1"); got != 2 {
		t.Errorf("seats = %d, want 2", got)
	}
	if got := a.Booked(0, "FL1"); got != 2 {
		t.Errorf("booked = %d", got)
	}
}

func TestRequestsAcceptedDuringPartition(t *testing.T) {
	a := newAirline(t, 2)
	cl := a.Cluster()
	defer cl.Shutdown()
	// Full fragmentation: every node isolated. Requests still accepted.
	cl.Net().Partition([]netsim.NodeID{0}, []netsim.NodeID{1}, []netsim.NodeID{2}, []netsim.NodeID{3})
	var r1, r2 core.TxnResult
	a.Request(0, "c1", "FL1", 1, func(r core.TxnResult) { r1 = r })
	a.Request(1, "c2", "FL2", 3, func(r core.TxnResult) { r2 = r })
	cl.RunFor(500 * time.Millisecond)
	if !r1.Committed || !r2.Committed {
		t.Fatalf("requests during total partition: %+v %+v", r1, r2)
	}
	cl.Net().Heal()
	if !cl.Settle(20 * time.Second) {
		t.Fatal("settle")
	}
	a.Scan("FL1", nil)
	a.Scan("FL2", nil)
	if !cl.Settle(20 * time.Second) {
		t.Fatal("settle 2")
	}
	if a.Seats(0, "c1", "FL1") != 1 || a.Seats(0, "c2", "FL2") != 3 {
		t.Errorf("seats = %d, %d", a.Seats(0, "c1", "FL1"), a.Seats(0, "c2", "FL2"))
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

func TestOverbookingPrevented(t *testing.T) {
	a, err := NewAirline(AirlineConfig{
		Cluster:      core.Config{N: 3, Seed: 3},
		Flights:      map[string]int64{"FL1": 5},
		FlightHome:   map[string]netsim.NodeID{"FL1": 0},
		Customers:    []string{"c1", "c2"},
		CustomerHome: map[string]netsim.NodeID{"c1": 1, "c2": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := a.Cluster()
	defer cl.Shutdown()
	// Both customers request 4 seats of a 5-seat flight — during a
	// partition, so neither request can be checked against the other.
	cl.Net().Partition([]netsim.NodeID{0}, []netsim.NodeID{1}, []netsim.NodeID{2})
	a.Request(1, "c1", "FL1", 4, nil)
	a.Request(2, "c2", "FL1", 4, nil)
	cl.RunFor(500 * time.Millisecond)
	cl.Net().Heal()
	if !cl.Settle(20 * time.Second) {
		t.Fatal("settle")
	}
	a.Scan("FL1", nil)
	if !cl.Settle(20 * time.Second) {
		t.Fatal("settle 2")
	}
	// Exactly one grant fits; the other is refused — no overbooking,
	// because granting is centralized at the flight's agent.
	booked := a.Booked(0, "FL1")
	if booked > a.Capacity("FL1") {
		t.Fatalf("overbooked: %d > %d", booked, a.Capacity("FL1"))
	}
	if booked != 4 {
		t.Errorf("booked = %d, want 4", booked)
	}
	if a.Refused == 0 {
		t.Error("no refusal recorded")
	}
	// The run is fragmentwise serializable even though the read-access
	// graph (two flights reading two customers) is elementarily cyclic.
	if err := cl.Recorder().CheckFragmentwise(); err != nil {
		t.Errorf("fragmentwise: %v", err)
	}
}

// TestFig433NonSerializableButFragmentwise drives the paper's
// both-flights scenario live: each customer requests seats on both
// flights while partitioned so that each flight agent sees only one
// customer's request when scanning. The resulting history is not
// globally serializable but is fragmentwise serializable and overbooks
// nothing.
func TestFig433NonSerializableButFragmentwise(t *testing.T) {
	a := newAirline(t, 4)
	cl := a.Cluster()
	defer cl.Shutdown()
	// Groups: {c1 (node 0), FL1 (node 2)} and {c2 (node 1), FL2 (node 3)}.
	cl.Net().Partition([]netsim.NodeID{0, 2}, []netsim.NodeID{1, 3})
	// Customer 1 requests seats on both flights in one transaction; so
	// does customer 2 (the Figure 4.3.3 transaction shape).
	a.RequestBoth(0, "c1", map[string]int64{"FL1": 1, "FL2": 1}, nil)
	a.RequestBoth(1, "c2", map[string]int64{"FL1": 1, "FL2": 1}, nil)
	cl.RunFor(500 * time.Millisecond)
	// Each flight scans while seeing only its side's requests: FL1 sees
	// c1's, FL2 sees c2's.
	a.Scan("FL1", nil)
	a.Scan("FL2", nil)
	cl.RunFor(500 * time.Millisecond)
	cl.Net().Heal()
	if !cl.Settle(20 * time.Second) {
		t.Fatal("settle")
	}
	// FL1 granted c1 only; FL2 granted c2 only: the cross pattern.
	if a.Seats(0, "c1", "FL1") != 1 || a.Seats(0, "c2", "FL2") != 1 {
		t.Fatalf("grants missing: %d %d", a.Seats(0, "c1", "FL1"), a.Seats(0, "c2", "FL2"))
	}
	if a.Seats(0, "c2", "FL1") != 0 || a.Seats(0, "c1", "FL2") != 0 {
		t.Fatalf("unexpected grants")
	}
	if err := cl.Recorder().CheckGlobal(history.Options{}); err == nil {
		t.Error("schedule unexpectedly globally serializable; Figure 4.3.3's anomaly not reproduced")
	}
	if err := cl.Recorder().CheckFragmentwise(); err != nil {
		t.Errorf("fragmentwise: %v", err)
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

// TestStopoverFlightMovesWithPlane is the Section 4.4 example: the
// plane is the token for the seat-assignment fragment; at each stop the
// airport's computer becomes the agent, moving with data (the manifest
// travels on the plane).
func TestStopoverFlightMovesWithPlane(t *testing.T) {
	a := newAirline(t, 5)
	cl := a.Cluster()
	defer cl.Shutdown()
	a.Request(0, "c1", "FL1", 2, nil)
	cl.Settle(10 * time.Second)
	a.Scan("FL1", nil) // granted at origin airport (node 2)
	cl.Settle(10 * time.Second)

	// The plane takes off: its fragment moves to the stopover airport
	// (node 3) carrying the data.
	var mv agentmove.Result
	agentmove.MoveWithData(cl, FlightAgent("FL1"), 3, 200*time.Millisecond,
		func(r agentmove.Result) { mv = r })
	cl.RunFor(time.Second)
	if !mv.Completed {
		t.Fatalf("move = %+v", mv)
	}
	// New passengers board at the stopover.
	a.Request(1, "c2", "FL1", 3, nil)
	cl.Settle(10 * time.Second)
	a.Scan("FL1", nil) // now runs at node 3
	if !cl.Settle(20 * time.Second) {
		t.Fatal("settle")
	}
	if got := a.Booked(0, "FL1"); got != 5 {
		t.Errorf("booked = %d, want 5", got)
	}
	if err := cl.Recorder().CheckFragmentwise(); err != nil {
		t.Errorf("fragmentwise: %v", err)
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

// TestScanAbortedAfterRefusingCountsNothing: a scan that refuses a
// grant and then aborts leaves Refused untouched; the refusal counts
// once a scan that makes it commits.
func TestScanAbortedAfterRefusingCountsNothing(t *testing.T) {
	a, err := NewAirline(AirlineConfig{
		Cluster:      core.Config{N: 3, Seed: 1},
		Flights:      map[string]int64{"FL": 1},
		FlightHome:   map[string]netsim.NodeID{"FL": 2},
		Customers:    []string{"c1", "c2"},
		CustomerHome: map[string]netsim.NodeID{"c1": 0, "c2": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := a.Cluster()
	defer cl.Shutdown()
	a.Request(0, "c1", "FL", 1, nil)
	a.Request(1, "c2", "FL", 1, nil)
	if !cl.Settle(10 * time.Second) {
		t.Fatal("settle")
	}
	// The scan reads booked, then c1's request and seat, writes c1's
	// seat, reads c2's request and seat — refusing c2 at 6 ms — and
	// writes booked at 7 ms. The flight's home crashes in between.
	var res core.TxnResult
	a.Scan("FL", func(r core.TxnResult) { res = r })
	cl.Sched().After(6500*time.Microsecond, func() { cl.Node(2).SimulateCrashRestart() })
	cl.RunFor(100 * time.Millisecond)
	if res.Committed || !errors.Is(res.Err, core.ErrCrashed) {
		t.Fatalf("scan = %+v, want aborted by the crash", res)
	}
	if a.Refused != 0 {
		t.Errorf("Refused = %d after an aborted scan, want 0", a.Refused)
	}
	a.Scan("FL", func(r core.TxnResult) { res = r })
	if !cl.Settle(10 * time.Second) {
		t.Fatal("settle after rescan")
	}
	if !res.Committed || a.Refused != 1 || a.Booked(0, "FL") != 1 {
		t.Errorf("rescan = %+v, Refused %d, booked %d; want committed, 1, 1", res, a.Refused, a.Booked(0, "FL"))
	}
}

// TestRequestBothTakesTwoOperations: a two-flight request writes its
// two request objects in the same order on every run of its program,
// so it commits after exactly two operations (1 ms each in the
// simulator). Writing them in map order, a rerun that starts with the
// other object diverges from its log and pays for the write again.
func TestRequestBothTakesTwoOperations(t *testing.T) {
	for i := 0; i < 200; i++ {
		a := newAirline(t, int64(i+1))
		var res core.TxnResult
		a.RequestBoth(0, "c1", map[string]int64{"FL1": 1, "FL2": 1}, func(r core.TxnResult) { res = r })
		a.Cluster().RunFor(50 * time.Millisecond)
		a.Cluster().Shutdown()
		if d := res.End.Sub(res.Start); !res.Committed || d != 2*time.Millisecond {
			t.Fatalf("run %d: committed %v after %v, want committed after 2ms", i, res.Committed, d)
		}
	}
}
