// Package app is the wireencodable check-site fixture: payloads flow
// into Broadcaster.Send, Transport.Send, wire.Encode, and the
// payload-carrying composite-literal fields.
package app

import (
	"broadcast"
	"netsim"
	"txn"
	"wire"
)

// entry is concrete, unregistered, and unhandled: every use below is a
// finding.
type entry struct{ Key string }

// registered has a codec, declared here next to the type.
type registered struct{ N int64 }

func init() {
	wire.Register(0x40,
		func(registered) int { return 1 },
		func(b []byte, m registered) []byte { return append(b, byte(m.N)) },
		func(*wire.Reader) registered { return registered{} })
}

// blessed is simulation-internal by design.
//
//halint:allow wireencodable -- fixture: in-memory only, never serialized
type blessed struct{ X int }

func send(b *broadcast.Broadcaster, q txn.Quasi, dyn any) {
	b.Send(q)            // registered by wire itself: quiet
	b.Send("plain")      // basic: quiet
	b.Send(int64(7))     // basic: quiet
	b.Send(dyn)          // interface: statically unknowable, quiet
	b.Send(blessed{})    // type-decl allow: quiet
	b.Send(registered{}) // registered here: quiet
	b.Send(entry{})      // want `Broadcaster\.Send payload of type app\.entry`
	b.Send(&q)           // want `Broadcaster\.Send payload is a pointer`
}

func direct(tr netsim.Transport, sim *netsim.Network, dyn any) {
	tr.Send(0, 1, registered{}) // registered: quiet
	tr.Send(0, 1, dyn)          // interface: quiet
	tr.Send(0, 1, blessed{})    // type-decl allow: quiet
	tr.Send(0, 1, entry{})      // want `Transport\.Send payload of type app\.entry has no wire codec`
	sim.Send(0, 1, entry{})     // concrete in-memory network, never serialized: quiet
}

func encode(q txn.Quasi) {
	_, _ = wire.Encode(q)
	_, _ = wire.Encode(entry{}) // want `wire\.Encode payload of type app\.entry`
}

func build() broadcast.Data {
	_ = broadcast.DataBatch{Payloads: []any{txn.Quasi{}, "x", entry{}}} // want `DataBatch\.Payloads element of type app\.entry`
	_ = txn.WriteOp{Object: "o", Value: entry{}}                        // want `WriteOp\.Value of type app\.entry`
	_ = txn.WriteOp{Object: "o", Value: int64(1)}
	return broadcast.Data{Payload: entry{}} // want `Data\.Payload of type app\.entry`
}
