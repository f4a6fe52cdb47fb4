package wire

import (
	"bytes"
	"encoding/gob"
	"testing"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

// benchQuasi is a representative committed quasi-transaction: a
// two-write bank transfer, the hot payload of every propagation run.
func benchQuasi() txn.Quasi {
	return txn.Quasi{
		Txn:      txn.ID{Origin: 2, Seq: 90210},
		Fragment: "BALANCES",
		Pos:      txn.FragPos{Epoch: 3, Seq: 90211},
		Home:     2,
		Writes: []txn.WriteOp{
			{Object: "bal:00001", Value: int64(300)},
			{Object: "act:00001:2:90210", Value: int64(-100)},
		},
		Stamp: 1234567890,
	}
}

func benchDigest() broadcast.Digest {
	return broadcast.Digest{Have: map[netsim.NodeID]uint64{
		0: 1041, 1: 980, 2: 1203, 3: 997, 4: 1100,
	}}
}

// gobBaselineEncode replicates the Encode the codec replaced: a fresh
// gob encoder per message, no buffer pooling, no tag byte.
func gobBaselineEncode(payload any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobBaselineDecode(b []byte) (any, error) {
	var payload any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func gobBaselineSize(payload any) int {
	b, err := gobBaselineEncode(payload)
	if err != nil {
		return 0
	}
	return len(b)
}

// BenchmarkWireCodec pits the hand-rolled codec ("fast") against the old
// gob-per-call baseline for the two hottest message types. gob is gone
// from the wire; the baseline stays so the gap it was removed for can
// be measured again. CI's bench step runs this.
func BenchmarkWireCodec(b *testing.B) {
	gob.Register(txn.Quasi{})
	gob.Register(broadcast.Digest{})
	gob.Register(broadcast.DataBatch{})
	payloads := []struct {
		name string
		v    any
	}{
		{"quasi", benchQuasi()},
		{"digest", benchDigest()},
	}
	for _, p := range payloads {
		enc, err := Encode(p.v)
		if err != nil {
			b.Fatal(err)
		}
		gobEnc, err := gobBaselineEncode(p.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/fast/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(p.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/gob/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gobBaselineEncode(p.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/fast/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/gob/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gobBaselineDecode(gobEnc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("size/fast/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if Size(p.v) == 0 {
					b.Fatal("zero size")
				}
			}
		})
		b.Run("size/gob/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if gobBaselineSize(p.v) == 0 {
					b.Fatal("zero size")
				}
			}
		})
	}

	batch := broadcast.DataBatch{Origin: 2, Start: 90200}
	for i := 0; i < 16; i++ {
		q := benchQuasi()
		q.Txn.Seq += uint64(i)
		batch.Payloads = append(batch.Payloads, q)
	}
	encBatch, err := Encode(batch)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/fast/batch16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/gob/batch16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gobBaselineEncode(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/fast/batch16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(encBatch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
