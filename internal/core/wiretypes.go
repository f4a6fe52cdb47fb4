package core

import (
	"cmp"
	"slices"

	"fragdb/internal/fragments"
	"fragdb/internal/simtime"
	"fragdb/internal/storage"
	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// In the simulator every protocol message rides netsim by value and is
// never serialized. A real deployment ships them between processes, so
// every message type of this package has a codec in internal/wire's
// table: tags 0x10–0x2f, fields in declaration order. Registration
// happens at init so a process cannot forget it, and halint's
// wireencodable analyzer derives the encodable set from these very
// calls — sending a message type that is not in this list fails the
// lint, not the deployment. A tag, once shipped, keeps its meaning;
// changing one means bumping rtnet's tcpVersion.
func init() {
	// Direct node-to-node messages.
	wire.Register(0x10,
		func(m m0Msg) int {
			qs := wire.SizeQuasis(m.Installed)
			if qs < 0 {
				return -1
			}
			return wire.SizeString(string(m.Fragment)) + wire.SizeUvarint(m.NewEpoch) +
				wire.SizeFragPos(m.OldLast) + qs + wire.SizeNodeID(m.NewHome)
		},
		func(b []byte, m m0Msg) []byte {
			b = wire.AppendString(b, string(m.Fragment))
			b = wire.AppendUvarint(b, m.NewEpoch)
			b = wire.AppendFragPos(b, m.OldLast)
			b = wire.AppendQuasis(b, m.Installed)
			return wire.AppendNodeID(b, m.NewHome)
		},
		func(r *wire.Reader) m0Msg {
			return m0Msg{Fragment: r.FragmentID(), NewEpoch: r.Uvarint(),
				OldLast: r.FragPos(), Installed: r.Quasis(), NewHome: r.NodeID()}
		})
	wire.Register(0x11,
		func(m forwardMsg) int { return wire.SizeQuasi(m.Q) },
		func(b []byte, m forwardMsg) []byte { return wire.AppendQuasi(b, m.Q) },
		func(r *wire.Reader) forwardMsg { return forwardMsg{Q: r.Quasi()} })
	wire.Register(0x12,
		func(m lockReqMsg) int {
			return wire.SizeTxnID(m.Txn) + wire.SizeString(string(m.Object)) + wire.SizeNodeID(m.From)
		},
		func(b []byte, m lockReqMsg) []byte {
			b = wire.AppendTxnID(b, m.Txn)
			b = wire.AppendString(b, string(m.Object))
			return wire.AppendNodeID(b, m.From)
		},
		func(r *wire.Reader) lockReqMsg {
			return lockReqMsg{Txn: r.TxnID(), Object: r.ObjectID(), From: r.NodeID()}
		})
	wire.Register(0x13,
		func(m lockGrantMsg) int {
			v, ver := wire.SizeScalar(m.Value), sizeVersion(m.Version)
			if v < 0 || ver < 0 {
				return -1
			}
			return wire.SizeTxnID(m.Txn) + wire.SizeString(string(m.Object)) + v + 1 + ver +
				wire.SizeNodeID(m.From)
		},
		func(b []byte, m lockGrantMsg) []byte {
			b = wire.AppendTxnID(b, m.Txn)
			b = wire.AppendString(b, string(m.Object))
			b = wire.AppendScalar(b, m.Value)
			b = wire.AppendBool(b, m.Known)
			b = appendVersion(b, m.Version)
			return wire.AppendNodeID(b, m.From)
		},
		func(r *wire.Reader) lockGrantMsg {
			return lockGrantMsg{Txn: r.TxnID(), Object: r.ObjectID(),
				Value: r.Scalar(), Known: r.Bool(), Version: readVersion(r), From: r.NodeID()}
		})
	wire.Register(0x14,
		func(m lockDenyMsg) int { return wire.SizeTxnID(m.Txn) + wire.SizeString(string(m.Object)) },
		func(b []byte, m lockDenyMsg) []byte {
			return wire.AppendString(wire.AppendTxnID(b, m.Txn), string(m.Object))
		},
		func(r *wire.Reader) lockDenyMsg {
			return lockDenyMsg{Txn: r.TxnID(), Object: r.ObjectID()}
		})
	wire.Register(0x15,
		func(m lockReleaseMsg) int { return wire.SizeTxnID(m.Txn) },
		func(b []byte, m lockReleaseMsg) []byte { return wire.AppendTxnID(b, m.Txn) },
		func(r *wire.Reader) lockReleaseMsg { return lockReleaseMsg{Txn: r.TxnID()} })
	wire.Register(0x16,
		func(m prepareMsg) int { return wire.SizeQuasi(m.Q) },
		func(b []byte, m prepareMsg) []byte { return wire.AppendQuasi(b, m.Q) },
		func(r *wire.Reader) prepareMsg { return prepareMsg{Q: r.Quasi()} })
	wire.Register(0x17,
		func(m ackMsg) int { return wire.SizeTxnID(m.Txn) + wire.SizeNodeID(m.From) },
		func(b []byte, m ackMsg) []byte { return wire.AppendNodeID(wire.AppendTxnID(b, m.Txn), m.From) },
		func(r *wire.Reader) ackMsg { return ackMsg{Txn: r.TxnID(), From: r.NodeID()} })
	wire.Register(0x18,
		func(m commitCmdMsg) int { return sizeTxnFrag(m.Txn, m.Fragment) },
		func(b []byte, m commitCmdMsg) []byte { return appendTxnFrag(b, m.Txn, m.Fragment) },
		func(r *wire.Reader) commitCmdMsg {
			return commitCmdMsg{Txn: r.TxnID(), Fragment: r.FragmentID()}
		})
	wire.Register(0x19,
		func(m abortCmdMsg) int { return sizeTxnFrag(m.Txn, m.Fragment) },
		func(b []byte, m abortCmdMsg) []byte { return appendTxnFrag(b, m.Txn, m.Fragment) },
		func(r *wire.Reader) abortCmdMsg {
			return abortCmdMsg{Txn: r.TxnID(), Fragment: r.FragmentID()}
		})
	wire.Register(0x1a,
		func(m posQueryMsg) int {
			return wire.SizeUvarint(m.ID) + wire.SizeString(string(m.Fragment)) + wire.SizeNodeID(m.From)
		},
		func(b []byte, m posQueryMsg) []byte {
			b = wire.AppendUvarint(b, m.ID)
			b = wire.AppendString(b, string(m.Fragment))
			return wire.AppendNodeID(b, m.From)
		},
		func(r *wire.Reader) posQueryMsg {
			return posQueryMsg{ID: r.Uvarint(), Fragment: r.FragmentID(), From: r.NodeID()}
		})
	wire.Register(0x1b,
		func(m posReplyMsg) int {
			return wire.SizeUvarint(m.ID) + wire.SizeString(string(m.Fragment)) +
				wire.SizeFragPos(m.Pos) + wire.SizeNodeID(m.From)
		},
		func(b []byte, m posReplyMsg) []byte {
			b = wire.AppendUvarint(b, m.ID)
			b = wire.AppendString(b, string(m.Fragment))
			b = wire.AppendFragPos(b, m.Pos)
			return wire.AppendNodeID(b, m.From)
		},
		func(r *wire.Reader) posReplyMsg {
			return posReplyMsg{ID: r.Uvarint(), Fragment: r.FragmentID(),
				Pos: r.FragPos(), From: r.NodeID()}
		})
	// Commutative agent token handoff (adaptive placement on deployed
	// nodes).
	wire.Register(0x1c,
		func(m agentMovedMsg) int { return wire.SizeString(string(m.Agent)) + wire.SizeNodeID(m.NewHome) },
		func(b []byte, m agentMovedMsg) []byte {
			return wire.AppendNodeID(wire.AppendString(b, string(m.Agent)), m.NewHome)
		},
		func(r *wire.Reader) agentMovedMsg {
			return agentMovedMsg{Agent: fragments.AgentID(r.Str()), NewHome: r.NodeID()}
		})
	// Multi-fragment 2PC messages.
	wire.Register(0x1d,
		func(m multiPrepareMsg) int {
			ws := wire.SizeWrites(m.Writes)
			if ws < 0 {
				return -1
			}
			return sizeTxnFrag(m.MID, m.Fragment) + ws + wire.SizeNodeID(m.From)
		},
		func(b []byte, m multiPrepareMsg) []byte {
			b = appendTxnFrag(b, m.MID, m.Fragment)
			b = wire.AppendWrites(b, m.Writes)
			return wire.AppendNodeID(b, m.From)
		},
		func(r *wire.Reader) multiPrepareMsg {
			return multiPrepareMsg{MID: r.TxnID(), Fragment: r.FragmentID(),
				Writes: r.Writes(), From: r.NodeID()}
		})
	wire.Register(0x1e,
		func(m multiVoteMsg) int { return sizeTxnFrag(m.MID, m.Fragment) + 1 + wire.SizeNodeID(m.From) },
		func(b []byte, m multiVoteMsg) []byte {
			b = appendTxnFrag(b, m.MID, m.Fragment)
			b = wire.AppendBool(b, m.OK)
			return wire.AppendNodeID(b, m.From)
		},
		func(r *wire.Reader) multiVoteMsg {
			return multiVoteMsg{MID: r.TxnID(), Fragment: r.FragmentID(),
				OK: r.Bool(), From: r.NodeID()}
		})
	wire.Register(0x1f,
		func(m multiCommitMsg) int { return sizeTxnFrag(m.MID, m.Fragment) },
		func(b []byte, m multiCommitMsg) []byte { return appendTxnFrag(b, m.MID, m.Fragment) },
		func(r *wire.Reader) multiCommitMsg {
			return multiCommitMsg{MID: r.TxnID(), Fragment: r.FragmentID()}
		})
	wire.Register(0x20,
		func(m multiAbortMsg) int { return sizeTxnFrag(m.MID, m.Fragment) },
		func(b []byte, m multiAbortMsg) []byte { return appendTxnFrag(b, m.MID, m.Fragment) },
		func(r *wire.Reader) multiAbortMsg {
			return multiAbortMsg{MID: r.TxnID(), Fragment: r.FragmentID()}
		})
	// Snapshot catch-up state (broadcast.SnapshotOffer.State).
	wire.Register(0x21, sizeNodeSnap, appendNodeSnap, readNodeSnap)
}

func sizeTxnFrag(id txn.ID, f fragments.FragmentID) int {
	return wire.SizeTxnID(id) + wire.SizeString(string(f))
}

func appendTxnFrag(b []byte, id txn.ID, f fragments.FragmentID) []byte {
	return wire.AppendString(wire.AppendTxnID(b, id), string(f))
}

// storage.Version travels inside lock grants and snapshots.

func sizeVersion(v storage.Version) int {
	val := wire.SizeScalar(v.Value)
	if val < 0 {
		return -1
	}
	return val + wire.SizeTxnID(v.Txn) + wire.SizeVarint(int64(v.Stamp)) + wire.SizeFragPos(v.Pos)
}

func appendVersion(b []byte, v storage.Version) []byte {
	b = wire.AppendScalar(b, v.Value)
	b = wire.AppendTxnID(b, v.Txn)
	b = wire.AppendVarint(b, int64(v.Stamp))
	return wire.AppendFragPos(b, v.Pos)
}

func readVersion(r *wire.Reader) storage.Version {
	return storage.Version{Value: r.Scalar(), Txn: r.TxnID(),
		Stamp: simtime.Time(r.Varint()), Pos: r.FragPos()}
}

// nodeSnap's maps are written in key order, so equal snapshots give
// equal bytes. The element minimums handed to Count are the fewest
// bytes an entry can take (one per field), which caps what a hostile
// count can make a decoder allocate at a small multiple of the input.

func sortedKeysFunc[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

func comparePos(a, b txn.FragPos) int {
	return cmp.Or(cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Seq, b.Seq))
}

func compareTxnID(a, b txn.ID) int {
	return cmp.Or(cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.Seq, b.Seq))
}

func sizeSnapStream(s snapStream) int {
	n := wire.SizeFragPos(s.Last) + wire.SizeUvarint(uint64(len(s.Pending))) +
		wire.SizeUvarint(uint64(len(s.Prepared)))
	for p, q := range s.Pending {
		qs := wire.SizeQuasi(q)
		if qs < 0 {
			return -1
		}
		n += wire.SizeFragPos(p) + qs
	}
	for id, q := range s.Prepared {
		qs := wire.SizeQuasi(q)
		if qs < 0 {
			return -1
		}
		n += wire.SizeTxnID(id) + qs
	}
	return n
}

func appendSnapStream(b []byte, s snapStream) []byte {
	b = wire.AppendFragPos(b, s.Last)
	b = wire.AppendUvarint(b, uint64(len(s.Pending)))
	for _, p := range sortedKeysFunc(s.Pending, comparePos) {
		b = wire.AppendQuasi(wire.AppendFragPos(b, p), s.Pending[p])
	}
	b = wire.AppendUvarint(b, uint64(len(s.Prepared)))
	for _, id := range sortedKeysFunc(s.Prepared, compareTxnID) {
		b = wire.AppendQuasi(wire.AppendTxnID(b, id), s.Prepared[id])
	}
	return b
}

func readSnapStream(r *wire.Reader) snapStream {
	return snapStream{
		Last:     r.FragPos(),
		Pending:  wire.ReadMap(r, 10, (*wire.Reader).FragPos, (*wire.Reader).Quasi),
		Prepared: wire.ReadMap(r, 10, (*wire.Reader).TxnID, (*wire.Reader).Quasi),
	}
}

func sizeNodeSnap(s nodeSnap) int {
	n := wire.SizeUvarint(uint64(len(s.Vals))) + wire.SizeUvarint(uint64(len(s.Streams))) +
		wire.SizeUvarint(uint64(len(s.Applied)))
	for f, vals := range s.Vals {
		n += wire.SizeString(string(f)) + wire.SizeUvarint(uint64(len(vals)))
		for o, v := range vals {
			vs := sizeVersion(v)
			if vs < 0 {
				return -1
			}
			n += wire.SizeString(string(o)) + vs
		}
	}
	for f, st := range s.Streams {
		ss := sizeSnapStream(st)
		if ss < 0 {
			return -1
		}
		n += wire.SizeString(string(f)) + ss
	}
	for f, qs := range s.Applied {
		as := wire.SizeQuasis(qs)
		if as < 0 {
			return -1
		}
		n += wire.SizeString(string(f)) + as
	}
	return n
}

func appendNodeSnap(b []byte, s nodeSnap) []byte {
	b = wire.AppendUvarint(b, uint64(len(s.Vals)))
	for _, f := range wire.SortedKeys(s.Vals) {
		vals := s.Vals[f]
		b = wire.AppendUvarint(wire.AppendString(b, string(f)), uint64(len(vals)))
		for _, o := range wire.SortedKeys(vals) {
			b = appendVersion(wire.AppendString(b, string(o)), vals[o])
		}
	}
	b = wire.AppendUvarint(b, uint64(len(s.Streams)))
	for _, f := range wire.SortedKeys(s.Streams) {
		b = appendSnapStream(wire.AppendString(b, string(f)), s.Streams[f])
	}
	b = wire.AppendUvarint(b, uint64(len(s.Applied)))
	for _, f := range wire.SortedKeys(s.Applied) {
		b = wire.AppendQuasis(wire.AppendString(b, string(f)), s.Applied[f])
	}
	return b
}

func readFragVals(r *wire.Reader) map[fragments.ObjectID]storage.Version {
	return wire.ReadMap(r, 7, (*wire.Reader).ObjectID, readVersion)
}

func readNodeSnap(r *wire.Reader) nodeSnap {
	return nodeSnap{
		Vals:    wire.ReadMap(r, 2, (*wire.Reader).FragmentID, readFragVals),
		Streams: wire.ReadMap(r, 5, (*wire.Reader).FragmentID, readSnapStream),
		Applied: wire.ReadMap(r, 2, (*wire.Reader).FragmentID, (*wire.Reader).Quasis),
	}
}
