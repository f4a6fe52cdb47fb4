package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/wire"

	// Every package that registers codecs, so the table under test is
	// the one a deployment runs with. A package that starts registering
	// must be added here.
	_ "fragdb/internal/baselines"
	_ "fragdb/internal/core"
	_ "fragdb/internal/workload"
)

// populate fills v with distinct non-zero values, recursively: two
// elements per slice and map, an int64 in every `any` slot. The message
// types are mostly unexported, so samples are built through reflection
// from the table itself: a type registered later gets one too.
func populate(v reflect.Value, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-*next)
	case reflect.Uint64:
		v.SetUint(uint64(*next) << 7)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Interface:
		v.Set(reflect.ValueOf(*next))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		populate(v.Index(0), next)
		populate(v.Index(1), next)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			populate(k, next)
			populate(e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		// An in-memory link (storage.Version.Frag): it does not travel,
		// so it stays nil and the round trip compares equal.
	default:
		panic(fmt.Sprintf("populate: add a case for %v", v.Type()))
	}
}

// tableSamples returns one populated value per registered type, in tag
// order.
func tableSamples(tb testing.TB) []any {
	var out []any
	var next int64
	for _, reg := range wire.Registered() {
		v := reflect.New(reg.Type).Elem()
		populate(v, &next)
		out = append(out, v.Interface())
	}
	if len(out) < 26 {
		tb.Fatalf("only %d registered types: a registering package is not linked into this test", len(out))
	}
	return out
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEveryRegisteredType ranges over the codec table, so a type added
// later cannot be skipped. Each type is checked alone and in both kinds
// of payload slot (Data.Payload, SnapshotOffer.State).
func TestEveryRegisteredType(t *testing.T) {
	hostile := binary.AppendUvarint(nil, 1<<40)
	for i, sample := range tableSamples(t) {
		tag := wire.Registered()[i].Tag
		for j, v := range []any{
			sample,
			broadcast.Data{Origin: 1, Seq: 2, Payload: sample},
			broadcast.SnapshotOffer{Have: map[netsim.NodeID]uint64{0: 3, 2: 1}, State: sample},
		} {
			name := fmt.Sprintf("%#x/%T", tag, v)
			b, err := wire.Encode(v)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if j == 0 && b[0] != tag {
				t.Errorf("%s: encoded under tag %#x", name, b[0])
			}
			if wire.Size(v) != len(b) {
				t.Errorf("%s: Size=%d, len(Encode)=%d", name, wire.Size(v), len(b))
			}
			got, err := wire.Decode(b)
			if err != nil {
				t.Errorf("%s: decode: %v", name, err)
			} else if !reflect.DeepEqual(got, v) {
				t.Errorf("%s: round trip:\n got %+v\nwant %+v", name, got, v)
			}
			// Maps are walked in sorted key order: equal messages, equal
			// bytes, whatever order the runtime iterates in.
			for k := 0; k < 8; k++ {
				if again, _ := wire.Encode(v); !bytes.Equal(again, b) {
					t.Errorf("%s: encoding is not deterministic:\n%x\n%x", name, b, again)
					break
				}
			}
			for cut := 0; cut < len(b); cut++ {
				if got, err := wire.Decode(b[:cut]); err == nil {
					t.Errorf("%s: %d-byte prefix of %d bytes decoded to %+v", name, cut, len(b), got)
				}
				// A 2^40 planted where any field starts, count fields
				// included, must be turned down before it is allocated for.
				planted := append(b[:cut:cut], hostile...)
				if n := allocated(func() { _, _ = wire.Decode(planted) }); n > 1<<20 {
					t.Errorf("%s: hostile length at offset %d made Decode allocate %d bytes", name, cut, n)
				}
			}
			if _, err := wire.Decode(append(b[:len(b):len(b)], 0)); err == nil {
				t.Errorf("%s: trailing byte accepted", name)
			}
		}
	}
}

// TestFrameCarriesEncodedMessages: the TCP transport's stream is
// EncodeFrame output back to back, and EncodeFrame is byte for byte
// AppendFrame over Encode — in one allocation instead of two. Read as
// the transport reads it, every frame into one buffer and through one
// interning Decoder, the stream decodes to what Decode makes of each
// frame alone.
func TestFrameCarriesEncodedMessages(t *testing.T) {
	payloads := append(corpusPayloads(), tableSamples(t)...)
	var stream []byte
	for _, p := range payloads {
		b, err := wire.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.EncodeFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := wire.AppendFrame(nil, b); !bytes.Equal(frame, want) {
			t.Fatalf("%T: EncodeFrame %x, AppendFrame(Encode) %x", p, frame, want)
		}
		stream = append(stream, frame...)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	dec := wire.NewDecoder()
	var buf []byte
	for i := range payloads {
		b, err := wire.ReadFrame(r, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want, err := wire.Decode(b)
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		got, err := dec.Decode(b)
		if err != nil {
			t.Fatalf("frame %d: Decoder: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: Decoder made %+v, Decode %+v", i, got, want)
		}
		buf = b[:0]
	}
	quasi := payloads[0]
	if allocs := testing.AllocsPerRun(100, func() { _, _ = wire.EncodeFrame(quasi) }); allocs != 1 {
		t.Errorf("EncodeFrame of a quasi-transaction allocates %v times, want 1", allocs)
	}
	if _, err := wire.EncodeFrame(struct{ X int }{1}); err == nil {
		t.Error("EncodeFrame of an unregistered type succeeded")
	}
}
