package workload

import (
	"fmt"
	"slices"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

// Airline is the reservations database of Section 4.3 (Figure 4.3.3):
// one fragment per customer holding reservation *requests* (c_{i,j}),
// one fragment per flight holding granted *assignments* (f_{i,j}) plus
// a seat counter. Customers enter requests at any time, regardless of
// the network's state; each flight's agent periodically scans the
// request fragments and grants seats, refusing grants that would
// overbook. Because requesting is decoupled from granting and granting
// is centralized per flight, the system gets "the best of both worlds:
// availability and correctness."
//
// The seat-assignment fragment's agent can also move — the Section 4.4
// stopover example, where "the plane can be viewed as a token for the
// seat assignment fragment."
type Airline struct {
	cl        *core.Cluster
	flights   []string
	customers []string
	capacity  map[string]int64

	// perNodeSeq keys customer request objects uniquely per node (the
	// request fragments are commutative, like the bank's ACTIVITY).
	perNodeSeq map[string]uint64

	// Refused counts grant refusals that prevented overbooking.
	Refused int
}

// AirlineConfig configures an Airline.
type AirlineConfig struct {
	Cluster core.Config
	// Flights maps flight ids to seat capacity.
	Flights map[string]int64
	// FlightHome maps each flight's agent to its home node (the origin
	// airport's computer).
	FlightHome map[string]netsim.NodeID
	// Customers and their agents' home nodes.
	Customers    []string
	CustomerHome map[string]netsim.NodeID
}

// FlightAgent names the agent of a flight's assignment fragment.
func FlightAgent(flight string) fragments.AgentID {
	return fragments.AgentID("flight:" + flight)
}

// PassengerAgent names the agent of a customer's request fragment.
func PassengerAgent(cust string) fragments.AgentID {
	return fragments.AgentID("pass:" + cust)
}

func custFragment(c string) fragments.FragmentID {
	return fragments.FragmentID("CUST(" + c + ")")
}

// FlightFragment names a flight's assignment fragment.
func FlightFragment(f string) fragments.FragmentID {
	return fragments.FragmentID("FLIGHT(" + f + ")")
}

func seatObj(cust, flight string) fragments.ObjectID {
	return fragments.ObjectID(fmt.Sprintf("seat:%s:%s", cust, flight))
}

// askedObj is the paper's c_{i,j}: cust has requested seats on flight.
// A scan finds request objects only where they are replicated; it reads
// the declared marker even where it finds none, so the history sees it.
func askedObj(cust, flight string) fragments.ObjectID {
	return fragments.ObjectID(fmt.Sprintf("asked:%s:%s", cust, flight))
}

func bookedObj(flight string) fragments.ObjectID {
	return fragments.ObjectID("booked:" + flight)
}

// NewAirline builds and starts the reservations cluster.
func NewAirline(cfg AirlineConfig) (*Airline, error) {
	cfg.Cluster.Option = core.UnrestrictedReads
	cl := core.NewCluster(cfg.Cluster)
	a := &Airline{
		cl:         cl,
		capacity:   make(map[string]int64),
		perNodeSeq: make(map[string]uint64),
	}
	for f := range cfg.Flights {
		a.flights = append(a.flights, f)
	}
	// Flights in name order: RequestBoth's program writes in this order,
	// and a program must do the same operations each time it runs.
	slices.Sort(a.flights)
	for _, f := range a.flights {
		a.capacity[f] = cfg.Flights[f]
		objs := []fragments.ObjectID{bookedObj(f)}
		// Pre-declare the assignment objects f_{i,j} (Figure 4.3.3's
		// flight fragments contain one per customer).
		for _, c := range cfg.Customers {
			objs = append(objs, seatObj(c, f))
		}
		if err := cl.Catalog().AddFragment(FlightFragment(f), objs...); err != nil {
			return nil, err
		}
		cl.Tokens().Assign(FlightFragment(f), FlightAgent(f), cfg.FlightHome[f])
	}
	for _, c := range cfg.Customers {
		a.customers = append(a.customers, c)
		var asked []fragments.ObjectID
		for _, f := range a.flights {
			asked = append(asked, askedObj(c, f))
		}
		if err := cl.Catalog().AddFragment(custFragment(c), asked...); err != nil {
			return nil, err
		}
		home := cfg.CustomerHome[c]
		cl.Tokens().Assign(custFragment(c), PassengerAgent(c), home)
		cl.SetCommutative(custFragment(c))
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	for _, f := range a.flights {
		if err := cl.Load(bookedObj(f), int64(0)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Cluster exposes the underlying engine.
func (a *Airline) Cluster() *core.Cluster { return a.cl }

// Request enters a reservation request: customer cust wants seats on
// flight at the given node. Requests are accepted unconditionally, at
// any node, under any network condition (that is the availability
// story); granting happens later at the flight's agent.
func (a *Airline) Request(node netsim.NodeID, cust, flight string, seats int64, done func(core.TxnResult)) {
	key := fmt.Sprintf("%d:%s", int(node), cust)
	a.perNodeSeq[key]++
	req := fragments.ObjectID(fmt.Sprintf("req:%s:%s:%d:%d", cust, flight, int(node), a.perNodeSeq[key]))
	a.cl.Node(node).Submit(core.TxnSpec{
		Agent:    PassengerAgent(cust),
		Fragment: custFragment(cust),
		Label:    "request:" + cust + ":" + flight,
		Program: func(tx *core.Tx) error {
			if err := tx.Write(req, seats); err != nil {
				return err
			}
			return tx.Write(askedObj(cust, flight), true)
		},
	}, done)
}

// RequestBoth enters one transaction requesting seats on several
// flights at once (all request objects live in the customer's own
// fragment, so the initiation requirement is satisfied). This is the
// shape of the Figure 4.3.3 customer transactions.
func (a *Airline) RequestBoth(node netsim.NodeID, cust string, seats map[string]int64, done func(core.TxnResult)) {
	key := fmt.Sprintf("%d:%s", int(node), cust)
	var reqs []txn.WriteOp
	for _, f := range a.flights {
		n, ok := seats[f]
		if !ok {
			continue
		}
		a.perNodeSeq[key]++
		obj := fragments.ObjectID(fmt.Sprintf("req:%s:%s:%d:%d", cust, f, int(node), a.perNodeSeq[key]))
		reqs = append(reqs, txn.WriteOp{Object: obj, Value: n},
			txn.WriteOp{Object: askedObj(cust, f), Value: true})
	}
	a.cl.Node(node).Submit(core.TxnSpec{
		Agent:    PassengerAgent(cust),
		Fragment: custFragment(cust),
		Label:    "request-multi:" + cust,
		Program: func(tx *core.Tx) error {
			for _, r := range reqs {
				if err := tx.Write(r.Object, r.Value); err != nil {
					return err
				}
			}
			return nil
		},
	}, done)
}

// Scan runs flight's periodic granting transaction at the flight
// agent's home node: it reads every customer request fragment, grants
// new requests in customer order, and refuses any grant that would
// exceed capacity (overbooking prevention, centralized). Refusals count
// in Refused only once the scan commits.
func (a *Airline) Scan(flight string, done func(core.TxnResult)) {
	home, ok := a.cl.Tokens().HomeOfFragment(FlightFragment(flight))
	if !ok {
		return
	}
	cap := a.capacity[flight]
	var refused int
	a.cl.Node(home).Submit(core.TxnSpec{
		Agent:    FlightAgent(flight),
		Fragment: FlightFragment(flight),
		Label:    "scan:" + flight,
		Program: func(tx *core.Tx) error {
			refused = 0
			booked, err := tx.ReadInt(bookedObj(flight))
			if err != nil {
				return err
			}
			for _, cust := range a.customers {
				asked, err := tx.Read(askedObj(cust, flight))
				if err != nil {
					return err
				}
				if asked == nil {
					continue
				}
				want := int64(0)
				// The requests replicated here.
				for _, req := range a.cl.Node(tx.Node()).Store().Objects(custFragment(cust)) {
					// Request objects carry the flight id in their name.
					if !matchesFlight(string(req), cust, flight) {
						continue
					}
					v, err := tx.ReadInt(req)
					if err != nil {
						return err
					}
					want += v
				}
				if want == 0 {
					continue
				}
				granted, err := tx.ReadInt(seatObj(cust, flight))
				if err != nil {
					return err
				}
				if granted >= want {
					continue // nothing new
				}
				delta := want - granted
				if booked+delta > cap {
					refused++ // potential overbooking detected: refuse
					continue
				}
				booked += delta
				if err := tx.Write(seatObj(cust, flight), want); err != nil {
					return err
				}
			}
			return tx.Write(bookedObj(flight), booked)
		},
	}, func(r core.TxnResult) {
		if r.Committed {
			a.Refused += refused
		}
		if done != nil {
			done(r)
		}
	})
}

// matchesFlight reports whether request object name is for (cust,
// flight).
func matchesFlight(obj, cust, flight string) bool {
	prefix := "req:" + cust + ":" + flight + ":"
	return len(obj) > len(prefix) && obj[:len(prefix)] == prefix
}

// Booked returns the flight's seat count as replicated at node.
func (a *Airline) Booked(node netsim.NodeID, flight string) int64 {
	v, _ := a.cl.Node(node).Store().Get(bookedObj(flight))
	if v == nil {
		return 0
	}
	return v.(int64)
}

// Seats returns the customer's granted seats on flight as replicated at
// node.
func (a *Airline) Seats(node netsim.NodeID, cust, flight string) int64 {
	v, _ := a.cl.Node(node).Store().Get(seatObj(cust, flight))
	if v == nil {
		return 0
	}
	return v.(int64)
}

// Capacity returns the flight's configured capacity.
func (a *Airline) Capacity(flight string) int64 { return a.capacity[flight] }
