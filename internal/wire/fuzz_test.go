package wire_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// corpusPayloads are representative protocol messages: their encodings
// seed the fuzzer so it mutates from valid wire bytes rather than
// random noise.
func corpusPayloads() []any {
	q := txn.Quasi{
		Txn:      txn.ID{Origin: 2, Seq: 7},
		Fragment: "BALANCES",
		Pos:      txn.FragPos{Epoch: 1, Seq: 42},
		Home:     2,
		Writes: []txn.WriteOp{
			{Object: "bal:00001", Value: int64(300)},
			{Object: "act:00001:2:1", Value: int64(-100)},
		},
	}
	return []any{
		q,
		broadcast.Data{Origin: 1, Seq: 9, Payload: q},
		broadcast.DataBatch{Origin: 1, Start: 9, Payloads: []any{q, "m1", int64(3), nil}},
		broadcast.Digest{},
		broadcast.Digest{Have: map[netsim.NodeID]uint64{0: 3, 1: 7}, Delta: true},
		int64(-1),
		"m0",
		true,
	}
}

// FuzzDecode feeds arbitrary bytes to Decode: it must either return an
// error or a payload that re-encodes and re-decodes stably — never
// panic. The seed corpus is built from real encoded messages, at least
// one per registered tag.
func FuzzDecode(f *testing.F) {
	for _, p := range append(corpusPayloads(), tableSamples(f)...) {
		b, err := wire.Encode(p)
		if err != nil {
			f.Fatalf("seeding corpus: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	// Hostile length fields: each declares vastly more elements or bytes
	// than the buffer holds. The bounds-checked reader must reject them
	// (count/str validate against the remaining input before allocating);
	// these pin the untrusted-input contract the TCP transport relies on.
	for _, hostile := range hostileLengthCorpus() {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.Decode(data)
		if err != nil {
			return // rejected, fine
		}
		// Accepted payloads must round-trip: encode/decode is how every
		// byte-shipping transport would relay them.
		b2, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode: %v", v, err)
		}
		v2, err := wire.Decode(b2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded %T failed: %v", v, err)
		}
		b3, err := wire.Encode(v2)
		if err != nil {
			t.Fatalf("second re-encode of %T failed: %v", v2, err)
		}
		if !bytes.Equal(b2, b3) {
			t.Fatalf("unstable encoding for %T:\n%x\n%x", v, b2, b3)
		}
	})
}

// hostileLengthCorpus builds short buffers whose internal length and
// count fields declare sizes far beyond the buffer: oversized string
// lengths, write counts, batch counts, digest counts, plus truncations
// of a valid message at every prefix-interesting point.
func hostileLengthCorpus() [][]byte {
	big := binary.AppendUvarint(nil, 1<<60)
	tagOf := func(v any) byte {
		b, err := wire.Encode(v)
		if err != nil {
			panic(err)
		}
		return b[0]
	}
	tagQuasi, tagData := tagOf(txn.Quasi{}), tagOf(broadcast.Data{})
	tagBatch, tagDigest := tagOf(broadcast.DataBatch{}), tagOf(broadcast.Digest{})
	tagString := tagOf("")
	var out [][]byte
	// tagQuasi, origin 0, seq 0, then a fragment-name length of 2^60.
	out = append(out, append([]byte{tagQuasi, 0x00, 0x00}, big...))
	// tagQuasi with a valid empty fragment but a 2^60 write count:
	// origin, seq, fragment len 0, epoch, seq, home, stamp, count.
	q := []byte{tagQuasi, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}
	out = append(out, append(q, big...))
	// tagBatch declaring 2^60 payloads.
	out = append(out, append([]byte{tagBatch, 0x00, 0x00}, big...))
	// tagDigest declaring 2^60 Have entries.
	out = append(out, append([]byte{tagDigest, 0x01}, big...))
	// tagData whose string value declares 2^60 bytes.
	out = append(out, append([]byte{tagData, 0x00, 0x00, tagString}, big...))
	// Truncations of a real message at every length.
	full, err := wire.Encode(corpusPayloads()[0])
	if err == nil {
		for i := 1; i < len(full); i += 3 {
			out = append(out, full[:i])
		}
	}
	return out
}

// TestHostileLengthsRejected runs the hostile corpus directly (the
// fuzzer seeds are only exercised under -fuzz): every entry must be
// rejected with an error, not a panic or a giant allocation.
// (TestEveryRegisteredType plants the same hostile length at every
// offset of every registered type's encoding.)
func TestHostileLengthsRejected(t *testing.T) {
	for i, b := range hostileLengthCorpus() {
		if v, err := wire.Decode(b); err == nil {
			t.Errorf("hostile entry %d (%x) decoded to %T, want error", i, b, v)
		}
	}
}

// TestEncodedCorpusRoundTrips keeps the corpus honest as a plain test:
// every seeded payload must round-trip through Encode/Decode.
func TestEncodedCorpusRoundTrips(t *testing.T) {
	for _, p := range corpusPayloads() {
		b, err := wire.Encode(p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		v, err := wire.Decode(b)
		if err != nil {
			t.Fatalf("decode %T: %v", p, err)
		}
		b2, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("re-encode %T: %v", v, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("%T does not round-trip stably", p)
		}
	}
}
