package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame layer: when messages leave the process (the rtnet TCP
// transport), each Encode output is carried as one length-prefixed
// frame on a byte stream:
//
//	frame := uvarint(len(payload)) payload
//
// The length prefix is untrusted input. ReadFrame validates it against
// the configured maximum BEFORE allocating, so a corrupt or hostile
// peer can cost at most maxFrame bytes per frame, never a multi-GB
// make([]byte, n) or an out-of-memory kill. Zero-length frames are
// rejected too: every Encode output starts with a format tag, so an
// empty frame is always a framing bug, and rejecting it keeps the
// stream parser from spinning on a zeroed buffer.

// MaxFrameDefault bounds frame payloads when the caller passes
// maxFrame <= 0. 1 MiB is far above any message this protocol emits
// (the largest are DataBatches capped by the broadcast's
// BatchMaxBytes) while keeping the worst-case per-frame allocation
// harmless.
const MaxFrameDefault = 1 << 20

// Framing errors. ErrFrameTooBig and ErrFrameCorrupt are protocol
// violations: the stream is unrecoverable and the connection should be
// dropped.
var (
	ErrFrameTooBig  = errors.New("wire: frame length exceeds maximum")
	ErrFrameCorrupt = errors.New("wire: corrupt frame header")
)

// AppendFrame appends payload as one frame to dst and returns the
// extended buffer. Writing the prefix and payload as one buffer lets a
// connection writer issue a single Write per frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// EncodeFrame encodes payload as one frame, AppendFrame(nil,
// Encode(payload)) in a single exact-sized allocation.
func EncodeFrame(payload any) ([]byte, error) {
	c, n, err := plan(payload)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 0, SizeUvarint(uint64(n))+n)
	frame = binary.AppendUvarint(frame, uint64(n))
	return c.appendTo(frame, payload), nil
}

// ReadFrame reads one frame from r, returning its payload. The length
// prefix is validated against maxFrame (MaxFrameDefault when <= 0)
// before any allocation. io.EOF is returned only at a clean frame
// boundary; a stream ending mid-header or mid-payload returns
// io.ErrUnexpectedEOF, so callers can tell a peer's orderly close from
// a connection reset mid-frame.
func ReadFrame(r *bufio.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrameDefault
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			// EOF on the first header byte is a clean close; ReadUvarint
			// returns bare io.EOF there and ErrUnexpectedEOF mid-varint.
			return nil, err
		}
		if err.Error() == "binary: varint overflows a 64-bit integer" {
			return nil, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
		}
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrFrameCorrupt)
	}
	if n > uint64(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, maxFrame)
	}
	buf := make([]byte, int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
