// Package netsim is a wireencodable fixture mirroring the real
// transport seam: direct messages leave a node through Transport.Send.
package netsim

type NodeID int

type Transport interface {
	Send(from, to NodeID, payload any)
}

// Network is the in-memory implementation. Sends on the concrete type
// are simulation-only and stay unchecked.
type Network struct{}

func (*Network) Send(from, to NodeID, payload any) {}
