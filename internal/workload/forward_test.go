package workload

import (
	"testing"

	"fragdb/internal/wire"
)

// BenchmarkWireCodec times the forwarded-operation pair through
// wire.Encode and wire.Decode. CI runs it beside the wire package's
// benchmark of the same name.
func BenchmarkWireCodec(b *testing.B) {
	for _, p := range []struct {
		name string
		v    any
	}{
		{"liveOp", liveOpMsg{ID: 90210, Origin: 2, Kind: "bump", Ctr: 0,
			Entry: "ctr:0:2:90210", Amount: 1}},
		{"liveOpReply", liveOpReplyMsg{ID: 90210, Committed: true, Home: 0}},
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
