// Package wire provides the codec for the messages the system
// exchanges, so experiments can account for real wire sizes (the 1986
// testbed's point-to-point links are simulated, but the bytes that
// would cross them are measured from actual encodings, not guesses)
// and so a real deployment can ship them between processes.
//
// There is one format: a tag byte, then the message's fields as
// varints and length-prefixed strings, hand-rolled per type (one
// exact-sized allocation per message, no reflection over fields). The
// same tag space serves a whole encoding and an `any`-typed payload
// slot inside one (Data.Payload, DataBatch.Payloads elements,
// SnapshotOffer.State), so a nested message is encoded exactly as it
// would be alone.
//
// Every message type has one entry in one table, keyed by tag for
// Decode and by concrete type for Encode and Size. This package
// registers the types it can import (txn.Quasi and the broadcast
// envelopes); a package that owns other message types registers them
// next to their declaration with Register, building their codecs from
// the exported Size*/Append* functions and Reader methods. A type
// without an entry is an Encode error and Size 0: that is what the
// simulation-only messages are, which ride netsim by value.
//
// Size computes the encoded size analytically without encoding, so
// per-message byte accounting (netsim.WithSizeFunc, the broadcast
// LogBytes gauge) costs nanoseconds.
package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"

	"fragdb/internal/broadcast"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// Tags: the first byte of every encoding and of every payload slot.
// 0x00–0x05 are the scalar values, 0x06–0x0f the messages this package
// owns, and the rest is handed out in ranges to the registering
// packages (DESIGN.md holds the table).
const (
	tagNil    byte = 0x00
	tagBool   byte = 0x01
	tagInt    byte = 0x02
	tagInt64  byte = 0x03
	tagUint64 byte = 0x04
	tagString byte = 0x05

	tagQuasi    byte = 0x06
	tagData     byte = 0x07
	tagBatch    byte = 0x08
	tagDigest   byte = 0x09
	tagSnapshot byte = 0x0a
)

// ---- the table -------------------------------------------------------

// codec is one message type's entry.
type codec struct {
	tag    byte
	typ    reflect.Type
	size   func(v any) int
	append func(b []byte, v any) []byte
	decode func(r *Reader) any
}

// Filled by Register during package initialization, read-only after.
var (
	byTag  [256]*codec
	byType = map[reflect.Type]*codec{}
)

// Register enters message type T in the codec table under tag. size
// reports the exact length of what app appends, or a negative number
// if v holds a value that cannot be encoded (see SizeScalar); app is
// only called on a v whose size was non-negative; dec reads back what
// app wrote, leaving errors in the Reader. Neither covers the tag byte.
// Call it from a package-level var or init in the package that
// declares T; a duplicate tag or type panics.
func Register[T any](tag byte, size func(T) int, app func([]byte, T) []byte, dec func(*Reader) T) {
	typ := reflect.TypeFor[T]()
	if tag <= tagString || byTag[tag] != nil || byType[typ] != nil {
		panic(fmt.Sprintf("wire: cannot register %v under tag %#x", typ, tag))
	}
	c := &codec{
		tag:    tag,
		typ:    typ,
		size:   func(v any) int { return size(v.(T)) },
		append: func(b []byte, v any) []byte { return app(b, v.(T)) },
		decode: func(r *Reader) any { return dec(r) },
	}
	byTag[tag] = c
	byType[typ] = c
}

// lookup returns v's entry, or nil if v is a scalar or has no codec.
func lookup(v any) *codec { return byType[reflect.TypeOf(v)] }

// sizeOf reports the encoded size of v in a payload slot, tag included,
// or a negative number if v cannot be encoded. c is lookup(v).
func (c *codec) sizeOf(v any) int {
	if c == nil {
		return SizeScalar(v)
	}
	if n := c.size(v); n >= 0 {
		return 1 + n
	}
	return -1
}

// appendTo appends a v that sizeOf accepted, behind its tag.
func (c *codec) appendTo(b []byte, v any) []byte {
	if c == nil {
		return AppendScalar(b, v)
	}
	return c.append(append(b, c.tag), v)
}

// Registration describes one entry of the codec table.
type Registration struct {
	Tag  byte
	Type reflect.Type
}

// Registered lists the codec table in tag order.
func Registered() []Registration {
	var out []Registration
	for _, c := range byTag {
		if c != nil {
			out = append(out, Registration{Tag: c.tag, Type: c.typ})
		}
	}
	return out
}

func init() {
	Register(tagQuasi, SizeQuasi, AppendQuasi, (*Reader).Quasi)
	Register(tagData, sizeData, appendData, readData)
	Register(tagBatch, sizeBatch, appendBatch, readBatch)
	Register(tagDigest, sizeDigest, appendDigest, readDigest)
	Register(tagSnapshot, sizeSnapshot, appendSnapshot, readSnapshot)
}

// ---- entry points ----------------------------------------------------

// Encode serializes a payload. It fails for a type without a codec and
// for a message holding a write value outside nil, bool, int, int64,
// uint64 and string.
func Encode(payload any) ([]byte, error) { return AppendEncode(nil, payload) }

// AppendEncode appends payload's encoding to dst, growing dst at most
// once, by the exact encoded size.
func AppendEncode(dst []byte, payload any) ([]byte, error) {
	c, n, err := plan(payload)
	if err != nil {
		return dst, err
	}
	return c.appendTo(slices.Grow(dst, n), payload), nil
}

// plan looks payload up once for both halves of an encode: its entry
// and its exact encoded size.
func plan(payload any) (c *codec, n int, err error) {
	c = lookup(payload)
	if n = c.sizeOf(payload); n < 0 {
		return nil, 0, fmt.Errorf("wire: encode %T: no codec for the type or for a value it holds", payload)
	}
	return c, n, nil
}

// Decode deserializes a payload produced by Encode. The input is
// untrusted: truncated, oversized-count, unknown-tag and trailing-byte
// inputs are errors, never panics or large allocations.
func Decode(b []byte) (any, error) {
	r := Reader{b: b}
	v := r.Payload()
	if r.err == nil && r.off != len(b) {
		r.err = errors.New("trailing bytes")
	}
	if r.err != nil {
		return nil, fmt.Errorf("wire: decode: %w", r.err)
	}
	return v, nil
}

// Size reports the encoded size of a payload in bytes, or 0 if the
// payload is not encodable (message types used only inside the
// simulation have no codec). The size is computed analytically,
// without encoding. Suitable for netsim.WithSizeFunc.
func Size(payload any) int { return max(SizePayload(payload), 0) }

// ---- sizes -----------------------------------------------------------

func SizeUvarint(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func SizeVarint(x int64) int {
	return SizeUvarint(uint64(x)<<1 ^ uint64(x>>63)) // zigzag
}

func SizeString(s string) int { return SizeUvarint(uint64(len(s))) + len(s) }

func SizeNodeID(id netsim.NodeID) int { return SizeVarint(int64(id)) }

func SizeTxnID(id txn.ID) int { return SizeNodeID(id.Origin) + SizeUvarint(id.Seq) }

func SizeFragPos(p txn.FragPos) int { return SizeUvarint(p.Epoch) + SizeUvarint(p.Seq) }

// SizeScalar reports the encoded size of a value of a scalar slot (a
// write value, a stored value), tag included, or a negative number if
// v is not one of nil, bool, int, int64, uint64 and string.
func SizeScalar(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 2
	case int:
		return 1 + SizeVarint(int64(x))
	case int64:
		return 1 + SizeVarint(x)
	case uint64:
		return 1 + SizeUvarint(x)
	case string:
		return 1 + SizeString(x)
	}
	return -1
}

// SizePayload reports the encoded size of a value of a payload slot (a
// scalar or a registered message), tag included, or a negative number
// if v cannot be encoded.
func SizePayload(v any) int { return lookup(v).sizeOf(v) }

// SizeWrites reports the encoded size of a write list, or a negative
// number if a value in it is not a scalar.
func SizeWrites(ws []txn.WriteOp) int {
	n := SizeUvarint(uint64(len(ws)))
	for _, w := range ws {
		v := SizeScalar(w.Value)
		if v < 0 {
			return -1
		}
		n += SizeString(string(w.Object)) + v
	}
	return n
}

// SizeQuasi reports the encoded size of q, or a negative number if a
// write value in it is not a scalar.
func SizeQuasi(q txn.Quasi) int {
	w := SizeWrites(q.Writes)
	if w < 0 {
		return -1
	}
	return SizeTxnID(q.Txn) + SizeString(string(q.Fragment)) + SizeFragPos(q.Pos) +
		SizeNodeID(q.Home) + SizeVarint(int64(q.Stamp)) + w
}

// SizeQuasis reports the encoded size of a counted list of
// quasi-transactions, or a negative number if one cannot be encoded.
func SizeQuasis(qs []txn.Quasi) int {
	n := SizeUvarint(uint64(len(qs)))
	for _, q := range qs {
		s := SizeQuasi(q)
		if s < 0 {
			return -1
		}
		n += s
	}
	return n
}

func sizeHave(have map[netsim.NodeID]uint64) int {
	n := SizeUvarint(uint64(len(have)))
	for o, h := range have {
		n += SizeNodeID(o) + SizeUvarint(h)
	}
	return n
}

func sizeData(m broadcast.Data) int {
	p := SizePayload(m.Payload)
	if p < 0 {
		return -1
	}
	return SizeNodeID(m.Origin) + SizeUvarint(m.Seq) + p
}

func sizeBatch(m broadcast.DataBatch) int {
	n := SizeNodeID(m.Origin) + SizeUvarint(m.Start) +
		SizeUvarint(uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		s := SizePayload(p)
		if s < 0 {
			return -1
		}
		n += s
	}
	return n
}

func sizeDigest(m broadcast.Digest) int { return 1 + sizeHave(m.Have) }

func sizeSnapshot(m broadcast.SnapshotOffer) int {
	s := SizePayload(m.State)
	if s < 0 {
		return -1
	}
	return sizeHave(m.Have) + s
}

// ---- encoding --------------------------------------------------------

func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

func AppendVarint(b []byte, x int64) []byte {
	return binary.AppendUvarint(b, uint64(x)<<1^uint64(x>>63))
}

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func AppendNodeID(b []byte, id netsim.NodeID) []byte { return AppendVarint(b, int64(id)) }

func AppendTxnID(b []byte, id txn.ID) []byte {
	return binary.AppendUvarint(AppendNodeID(b, id.Origin), id.Seq)
}

func AppendFragPos(b []byte, p txn.FragPos) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, p.Epoch), p.Seq)
}

// AppendScalar appends a scalar-slot value. Like every Append function
// it must only see what its Size function accepted.
func AppendScalar(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil)
	case bool:
		return AppendBool(append(b, tagBool), x)
	case int:
		return AppendVarint(append(b, tagInt), int64(x))
	case int64:
		return AppendVarint(append(b, tagInt64), x)
	case uint64:
		return binary.AppendUvarint(append(b, tagUint64), x)
	case string:
		return AppendString(append(b, tagString), x)
	}
	panic(fmt.Sprintf("wire: AppendScalar on unsized type %T", v))
}

// AppendPayload appends a payload-slot value: a scalar or a registered
// message, behind its tag.
func AppendPayload(b []byte, v any) []byte { return lookup(v).appendTo(b, v) }

func AppendWrites(b []byte, ws []txn.WriteOp) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for _, w := range ws {
		b = AppendString(b, string(w.Object))
		b = AppendScalar(b, w.Value)
	}
	return b
}

func AppendQuasi(b []byte, q txn.Quasi) []byte {
	b = AppendTxnID(b, q.Txn)
	b = AppendString(b, string(q.Fragment))
	b = AppendFragPos(b, q.Pos)
	b = AppendNodeID(b, q.Home)
	b = AppendVarint(b, int64(q.Stamp))
	return AppendWrites(b, q.Writes)
}

func AppendQuasis(b []byte, qs []txn.Quasi) []byte {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = AppendQuasi(b, q)
	}
	return b
}

// SortedKeys returns m's keys in ascending order. Maps are encoded in
// key order so that equal messages encode to equal bytes (map iteration
// order must not leak into the wire image).
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendHave(b []byte, have map[netsim.NodeID]uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(have)))
	for _, o := range SortedKeys(have) {
		b = AppendNodeID(b, o)
		b = binary.AppendUvarint(b, have[o])
	}
	return b
}

func appendData(b []byte, m broadcast.Data) []byte {
	b = AppendNodeID(b, m.Origin)
	b = binary.AppendUvarint(b, m.Seq)
	return AppendPayload(b, m.Payload)
}

func appendBatch(b []byte, m broadcast.DataBatch) []byte {
	b = AppendNodeID(b, m.Origin)
	b = binary.AppendUvarint(b, m.Start)
	b = binary.AppendUvarint(b, uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		b = AppendPayload(b, p)
	}
	return b
}

func appendDigest(b []byte, m broadcast.Digest) []byte {
	return appendHave(AppendBool(b, m.Delta), m.Have)
}

func appendSnapshot(b []byte, m broadcast.SnapshotOffer) []byte {
	return AppendPayload(appendHave(b, m.Have), m.State)
}

// ---- decoding --------------------------------------------------------

// Reader is a bounds-checked cursor over an encoded message. The first
// failure sticks: later reads return zero values, so a decoder reads
// its fields straight through and the caller checks once. All length
// and count fields are validated against the remaining input before any
// allocation, so hostile inputs cannot force large allocations.
type Reader struct {
	b     []byte
	off   int
	depth int // payload slots currently open
	err   error
}

// maxDepth bounds payload slots nested inside one another, so hostile
// input cannot recurse without limit. The protocol's deepest nesting is
// two: a Data holding a message, a SnapshotOffer holding its state.
const maxDepth = 4

var errTruncated = errors.New("truncated input")

// fail records err as the reader's failure unless one is recorded
// already.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail(errTruncated)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *Reader) Bool() bool { return r.Byte() != 0 }

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return x
}

func (r *Reader) Varint() int64 {
	x := r.Uvarint()
	return int64(x>>1) ^ -int64(x&1) // un-zigzag
}

func (r *Reader) NodeID() netsim.NodeID { return netsim.NodeID(r.Varint()) }

// Count reads an element count, rejecting values that could not fit in
// the remaining input given that every element takes at least elemMin
// bytes; after a failure it returns 0.
func (r *Reader) Count(elemMin int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off)/uint64(elemMin) {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(errTruncated)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *Reader) ObjectID() fragments.ObjectID { return fragments.ObjectID(r.Str()) }

func (r *Reader) FragmentID() fragments.FragmentID { return fragments.FragmentID(r.Str()) }

func (r *Reader) TxnID() txn.ID { return txn.ID{Origin: r.NodeID(), Seq: r.Uvarint()} }

func (r *Reader) FragPos() txn.FragPos { return txn.FragPos{Epoch: r.Uvarint(), Seq: r.Uvarint()} }

// Scalar reads a scalar-slot value.
func (r *Reader) Scalar() any {
	tag := r.Byte()
	if tag > tagString {
		r.fail(fmt.Errorf("tag %#x in a scalar slot", tag))
		return nil
	}
	return r.scalar(tag)
}

func (r *Reader) scalar(tag byte) any {
	switch tag {
	case tagBool:
		return r.Bool()
	case tagInt:
		return int(r.Varint())
	case tagInt64:
		return r.Varint()
	case tagUint64:
		return r.Uvarint()
	case tagString:
		return r.Str()
	}
	return nil // tagNil
}

// Payload reads a payload-slot value: a scalar or a registered message.
func (r *Reader) Payload() any {
	tag := r.Byte()
	if r.err != nil {
		return nil
	}
	if tag <= tagString {
		return r.scalar(tag)
	}
	c := byTag[tag]
	if c == nil {
		r.fail(fmt.Errorf("unknown tag %#x", tag))
		return nil
	}
	if r.depth == maxDepth {
		r.fail(errors.New("payloads nested too deep"))
		return nil
	}
	r.depth++
	v := c.decode(r)
	r.depth--
	if r.err != nil {
		r.err = fmt.Errorf("%v: %w", c.typ, r.err)
		return nil
	}
	return v
}

func (r *Reader) Writes() []txn.WriteOp {
	n := r.Count(2) // object length, value tag
	if r.err != nil || n == 0 {
		return nil
	}
	ws := make([]txn.WriteOp, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ws = append(ws, txn.WriteOp{Object: r.ObjectID(), Value: r.Scalar()})
	}
	return ws
}

func (r *Reader) Quasi() txn.Quasi {
	return txn.Quasi{
		Txn:      r.TxnID(),
		Fragment: r.FragmentID(),
		Pos:      r.FragPos(),
		Home:     r.NodeID(),
		Stamp:    simtime.Time(r.Varint()),
		Writes:   r.Writes(),
	}
}

// quasiMin is the shortest encoded quasi-transaction: eight one-byte
// fields.
const quasiMin = 8

func (r *Reader) Quasis() []txn.Quasi {
	n := r.Count(quasiMin)
	if r.err != nil || n == 0 {
		return nil
	}
	qs := make([]txn.Quasi, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		qs = append(qs, r.Quasi())
	}
	return qs
}

// ReadMap reads a counted map whose entries take at least elemMin
// bytes each, keys by key and values by val.
func ReadMap[K comparable, V any](r *Reader, elemMin int, key func(*Reader) K, val func(*Reader) V) map[K]V {
	n := r.Count(elemMin)
	if r.err != nil {
		return nil
	}
	m := make(map[K]V, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := key(r)
		m[k] = val(r)
	}
	return m
}

func (r *Reader) have() map[netsim.NodeID]uint64 {
	return ReadMap(r, 2, (*Reader).NodeID, (*Reader).Uvarint)
}

func readData(r *Reader) broadcast.Data {
	return broadcast.Data{Origin: r.NodeID(), Seq: r.Uvarint(), Payload: r.Payload()}
}

func readBatch(r *Reader) broadcast.DataBatch {
	m := broadcast.DataBatch{Origin: r.NodeID(), Start: r.Uvarint()}
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return m
	}
	m.Payloads = make([]any, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Payloads = append(m.Payloads, r.Payload())
	}
	return m
}

func readDigest(r *Reader) broadcast.Digest {
	return broadcast.Digest{Delta: r.Bool(), Have: r.have()}
}

func readSnapshot(r *Reader) broadcast.SnapshotOffer {
	return broadcast.SnapshotOffer{Have: r.have(), State: r.Payload()}
}
