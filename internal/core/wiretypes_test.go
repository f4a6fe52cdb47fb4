package core

import (
	"fmt"
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/storage"
	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// tagOf returns the tag the codec table holds for v's type.
func tagOf(tb testing.TB, v any) byte {
	tb.Helper()
	b, err := wire.Encode(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b[0]
}

// TestHostileCountsRejected: each count field of this package's
// messages, set to 2^40 with plausible bytes after it, is turned down
// at the count — before a slice or map is made for it. (The wire
// package's table test plants hostile lengths at every offset of every
// type and bounds what Decode allocates; this names the fields.)
func TestHostileCountsRejected(t *testing.T) {
	const huge = 1 << 40
	pad := make([]byte, 64)
	msg := func(v any, fields ...func([]byte) []byte) []byte {
		b := []byte{tagOf(t, v)}
		for _, f := range fields {
			b = f(b)
		}
		return append(wire.AppendUvarint(b, huge), pad...)
	}
	str := func(s string) func([]byte) []byte {
		return func(b []byte) []byte { return wire.AppendString(b, s) }
	}
	num := func(x uint64) func([]byte) []byte {
		return func(b []byte) []byte { return wire.AppendUvarint(b, x) }
	}
	pos := func(b []byte) []byte { return wire.AppendFragPos(b, txn.FragPos{Epoch: 1, Seq: 2}) }
	id := func(b []byte) []byte { return wire.AppendTxnID(b, txn.ID{Origin: 1, Seq: 2}) }
	for name, b := range map[string][]byte{
		"m0Msg.Installed":        msg(m0Msg{}, str("F"), num(2), pos),
		"multiPrepareMsg.Writes": msg(multiPrepareMsg{}, id, str("F")),
		"nodeSnap.Vals":          msg(nodeSnap{}),
		"nodeSnap.Vals[f]":       msg(nodeSnap{}, num(1), str("F")),
		"nodeSnap.Streams":       msg(nodeSnap{}, num(0)),
		"nodeSnap.Applied":       msg(nodeSnap{}, num(0), num(0)),
		"snapStream.Pending":     msg(nodeSnap{}, num(0), num(1), str("F"), pos),
		"snapStream.Prepared":    msg(nodeSnap{}, num(0), num(1), str("F"), pos, num(0)),
		"nodeSnap.Applied[f]":    msg(nodeSnap{}, num(0), num(0), num(1), str("F")),
	} {
		if v, err := wire.Decode(b); err == nil {
			t.Errorf("%s = 2^40 decoded to %+v, want error", name, v)
		}
	}
}

// benchSnap is a replica's catch-up state with n objects over four
// fragments, one of them commutative with a short applied tail.
func benchSnap(n int) nodeSnap {
	snap := nodeSnap{
		Vals:    map[fragments.FragmentID]map[fragments.ObjectID]storage.Version{"BALANCES": {}},
		Streams: make(map[fragments.FragmentID]snapStream),
		Applied: make(map[fragments.FragmentID][]txn.Quasi),
	}
	for i := 0; i < n; i++ {
		snap.Vals["BALANCES"][fragments.ObjectID(fmt.Sprintf("bal:%05d", i))] = storage.Version{
			Value: int64(1000 + i), Txn: txn.ID{Origin: 1, Seq: uint64(i)},
			Stamp: 1234567890, Pos: txn.FragPos{Epoch: 1, Seq: uint64(i)},
		}
	}
	for f := 0; f < 3; f++ {
		snap.Streams[fragments.FragmentID(fmt.Sprintf("F%d", f))] = snapStream{
			Last:     txn.FragPos{Epoch: 1, Seq: uint64(n)},
			Pending:  map[txn.FragPos]txn.Quasi{},
			Prepared: map[txn.ID]txn.Quasi{},
		}
	}
	for i := 0; i < 8; i++ {
		snap.Applied["CTR"] = append(snap.Applied["CTR"], txn.Quasi{
			Txn: txn.ID{Origin: 2, Seq: uint64(i)}, Fragment: "CTR", Home: 2,
			Writes: []txn.WriteOp{{Object: fragments.ObjectID(fmt.Sprintf("ctr:2:%d", i)), Value: int64(1)}},
		})
	}
	return snap
}

// BenchmarkWireCodec times this package's blocking-path messages — the
// remote read-lock trio of the Section 4.1 option — and a 1k-object
// snapshot through wire.Encode and wire.Decode. CI runs it beside the
// wire package's benchmark of the same name.
func BenchmarkWireCodec(b *testing.B) {
	id := txn.ID{Origin: 2, Seq: 90210}
	for _, p := range []struct {
		name string
		v    any
	}{
		{"lockReq", lockReqMsg{Txn: id, Object: "bal:00001", From: 2}},
		{"lockGrant", lockGrantMsg{Txn: id, Object: "bal:00001", Value: int64(300), Known: true,
			Version: storage.Version{Value: int64(300), Txn: txn.ID{Origin: 0, Seq: 777},
				Stamp: 1234567890, Pos: txn.FragPos{Epoch: 3, Seq: 90211}}, From: 0}},
		{"lockRelease", lockReleaseMsg{Txn: id}},
		{"nodeSnap1k", benchSnap(1000)},
	} {
		enc, err := wire.Encode(p.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := wire.Encode(p.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := wire.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
