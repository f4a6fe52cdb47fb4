// Package wire is a wireencodable fixture: the analyzer derives the
// encodable set from Register calls, here and in the packages that own
// message types, just as it does from the real internal/wire.
package wire

import (
	"broadcast"
	"txn"
)

type Reader struct{}

func Register[T any](tag byte, size func(T) int, app func([]byte, T) []byte, dec func(*Reader) T) {
}

func sizeOf[T any](T) int                  { return 0 }
func appendOf[T any](b []byte, _ T) []byte { return b }
func read[T any](*Reader) (v T)            { return v }

func init() {
	Register[txn.Quasi](0x06, sizeOf[txn.Quasi], appendOf[txn.Quasi], read[txn.Quasi]) // explicit form
	Register(0x07, sizeOf[broadcast.Data], appendOf[broadcast.Data], read[broadcast.Data])
	Register(0x08, sizeOf[broadcast.DataBatch], appendOf[broadcast.DataBatch], read[broadcast.DataBatch])
	Register(0x09, sizeOf[broadcast.Digest], appendOf[broadcast.Digest], read[broadcast.Digest])
	Register(0x0a, sizeOf[broadcast.SnapshotOffer], appendOf[broadcast.SnapshotOffer], read[broadcast.SnapshotOffer])
}

func Encode(payload any) ([]byte, error) { return nil, nil }
