package wire

import (
	"reflect"
	"testing"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

func TestQuasiRoundTrip(t *testing.T) {
	q := txn.Quasi{
		Txn:      txn.ID{Origin: 2, Seq: 7},
		Fragment: "BALANCES",
		Pos:      txn.FragPos{Epoch: 1, Seq: 3},
		Home:     2,
		Writes: []txn.WriteOp{
			{Object: "bal:00001", Value: int64(250)},
			{Object: "bal:00002", Value: int64(-50)},
		},
		Stamp: 12345,
	}
	b, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, q)
	}
}

func TestBroadcastDataWithNestedQuasi(t *testing.T) {
	d := broadcast.Data{
		Origin: 1, Seq: 9,
		Payload: txn.Quasi{
			Txn: txn.ID{Origin: 1, Seq: 9}, Fragment: "F",
			Writes: []txn.WriteOp{{Object: "x", Value: int64(1)}},
		},
	}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, d)
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := broadcast.Digest{Have: map[netsim.NodeID]uint64{0: 3, 2: 9}}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip: got %+v want %+v", got, d)
	}
}

func TestSizeGrowsWithPayload(t *testing.T) {
	small := txn.Quasi{Fragment: "F", Writes: []txn.WriteOp{{Object: "x", Value: int64(1)}}}
	big := txn.Quasi{Fragment: "F"}
	for i := 0; i < 50; i++ {
		big.Writes = append(big.Writes, txn.WriteOp{
			Object: "some-long-object-name", Value: int64(i),
		})
	}
	ss, bs := Size(small), Size(big)
	if ss <= 0 || bs <= ss {
		t.Errorf("sizes: small=%d big=%d", ss, bs)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a message")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestDataBatchRoundTrip(t *testing.T) {
	m := broadcast.DataBatch{
		Origin: 2,
		Start:  17,
		Payloads: []any{
			txn.Quasi{
				Txn: txn.ID{Origin: 2, Seq: 17}, Fragment: "F",
				Writes: []txn.WriteOp{{Object: "x", Value: int64(1)}},
			},
			"marker",
			int64(-9),
			42,
			uint64(7),
			true,
			nil,
		},
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestDeltaDigestRoundTrip(t *testing.T) {
	d := broadcast.Digest{Have: map[netsim.NodeID]uint64{1: 4}, Delta: true}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip: got %+v want %+v", got, d)
	}
}

// TestSizeMatchesEncode: the analytic Size must agree exactly with the
// bytes Encode produces — netsim's byte accounting and the LogBytes
// gauge are built on it. (TestEveryRegisteredType repeats this for the
// whole table.)
func TestSizeMatchesEncode(t *testing.T) {
	q := txn.Quasi{
		Txn:      txn.ID{Origin: 2, Seq: 700},
		Fragment: "BALANCES",
		Pos:      txn.FragPos{Epoch: 3, Seq: 1 << 40},
		Home:     4,
		Writes: []txn.WriteOp{
			{Object: "bal:00001", Value: int64(-250)},
			{Object: "flag", Value: true},
			{Object: "note", Value: "overdraft"},
			{Object: "gone", Value: nil},
		},
		Stamp: 987654321,
	}
	payloads := []any{
		q,
		broadcast.Data{Origin: 1, Seq: 9, Payload: q},
		broadcast.Data{Origin: 0, Seq: 1, Payload: "plain"},
		broadcast.DataBatch{Origin: 3, Start: 100, Payloads: []any{q, "x", int64(5), 11}},
		broadcast.Digest{Have: map[netsim.NodeID]uint64{0: 3, 1: 1 << 33, 2: 9}},
		broadcast.Digest{Have: map[netsim.NodeID]uint64{}, Delta: true},
	}
	for _, p := range payloads {
		b, err := Encode(p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		if got, want := Size(p), len(b); got != want {
			t.Errorf("%T: Size=%d, len(Encode)=%d", p, got, want)
		}
	}
}

// TestExoticValuesAreEncodeErrors: a message holding a value outside
// the scalar set has no encoding; Encode says so and Size reports 0,
// wherever in the message the value sits.
func TestExoticValuesAreEncodeErrors(t *testing.T) {
	exotic := txn.Quasi{Fragment: "F", Writes: []txn.WriteOp{{Object: "x", Value: float64(1.5)}}}
	payloads := []any{
		exotic,
		float64(1.5),
		broadcast.Data{Origin: 0, Seq: 1, Payload: []string{"a", "b"}},
		broadcast.Data{Origin: 0, Seq: 1, Payload: exotic},
		broadcast.DataBatch{Origin: 0, Start: 1, Payloads: []any{"fine", map[string]int64{"k": 1}}},
		broadcast.SnapshotOffer{State: exotic},
	}
	for _, p := range payloads {
		if b, err := Encode(p); err == nil {
			t.Errorf("%T with an exotic value encoded to %x, want error", p, b)
		}
		if n := Size(p); n != 0 {
			t.Errorf("%T with an exotic value: Size=%d, want 0", p, n)
		}
	}
}

// TestUnregisteredTypeSizesZero: simulation-only message types have no
// codec. Size answers 0 for them from the table lookup alone — no
// encode is attempted, so nothing is allocated — and Encode is an error.
func TestUnregisteredTypeSizesZero(t *testing.T) {
	type secret struct{ ch chan int }
	var p any = secret{}
	if got := Size(p); got != 0 {
		t.Fatalf("Size of unregistered type = %d", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { Size(p) }); allocs != 0 {
		t.Errorf("Size of unregistered type allocates %v times per call", allocs)
	}
	if _, err := Encode(p); err == nil {
		t.Error("unregistered type encoded")
	}
}

// TestRegisterRejectsCollisions: two types under one tag, one type
// under two tags, or a tag inside the scalar range would make Decode
// ambiguous; registration panics at start-up instead.
func TestRegisterRejectsCollisions(t *testing.T) {
	type fresh struct{}
	size := func(fresh) int { return 0 }
	app := func(b []byte, _ fresh) []byte { return b }
	dec := func(*Reader) fresh { return fresh{} }
	for _, tag := range []byte{tagString, tagQuasi} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register under tag %#x did not panic", tag)
				}
			}()
			Register(tag, size, app, dec)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering txn.Quasi a second time did not panic")
			}
		}()
		Register(0xfe, SizeQuasi, AppendQuasi, (*Reader).Quasi)
	}()
	if byTag[0xfe] != nil {
		t.Error("a rejected registration left an entry behind")
	}
}
