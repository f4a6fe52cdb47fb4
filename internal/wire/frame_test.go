package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{
		{0x01},
		bytes.Repeat([]byte{0xab}, 300),
		bytes.Repeat([]byte{0xcd}, MaxFrameDefault),
		{0x02}, // read into the largest frame's buffer
	}
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range payloads {
		got, err := ReadFrame(r, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		buf = got[:0]
	}
	if _, err := ReadFrame(r, nil, 0); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}
}

func TestFrameOversizedLengthRejectedBeforeAllocation(t *testing.T) {
	// A tiny input declaring a multi-GB payload must fail fast with
	// ErrFrameTooBig: the declared length is validated before any
	// allocation, so this test would OOM (not merely fail) if the check
	// regressed to allocate-then-read.
	for _, n := range []uint64{uint64(MaxFrameDefault) + 1, 1 << 32, 1 << 62} {
		hdr := binary.AppendUvarint(nil, n)
		r := bufio.NewReader(bytes.NewReader(hdr))
		_, err := ReadFrame(r, nil, 0)
		if !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("declared length %d: want ErrFrameTooBig, got %v", n, err)
		}
	}
	// A custom cap is honored too.
	hdr := binary.AppendUvarint(nil, 17)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr)), nil, 16); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig under custom cap, got %v", err)
	}
}

func TestFrameTruncationAndCorruption(t *testing.T) {
	t.Run("mid-payload", func(t *testing.T) {
		stream := AppendFrame(nil, bytes.Repeat([]byte{1}, 100))
		r := bufio.NewReader(bytes.NewReader(stream[:50]))
		if _, err := ReadFrame(r, nil, 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("want io.ErrUnexpectedEOF mid-payload, got %v", err)
		}
	})
	t.Run("mid-header", func(t *testing.T) {
		// 0x80 is an unterminated varint: a continuation bit with no
		// following byte.
		r := bufio.NewReader(bytes.NewReader([]byte{0x80}))
		if _, err := ReadFrame(r, nil, 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("want io.ErrUnexpectedEOF mid-header, got %v", err)
		}
	})
	t.Run("zero-length", func(t *testing.T) {
		r := bufio.NewReader(bytes.NewReader([]byte{0x00, 0xaa}))
		if _, err := ReadFrame(r, nil, 0); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("want ErrFrameCorrupt for zero-length frame, got %v", err)
		}
	})
	t.Run("overlong-varint", func(t *testing.T) {
		// 11 continuation bytes overflow a 64-bit varint.
		bad := bytes.Repeat([]byte{0xff}, 11)
		r := bufio.NewReader(bytes.NewReader(bad))
		if _, err := ReadFrame(r, nil, 0); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("want ErrFrameCorrupt for overlong varint, got %v", err)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame parser: it
// must never allocate beyond the cap (enforced structurally: the test
// cap is tiny, so any accepted payload is tiny) and never panic, and
// it must make progress on every accepted frame.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, []byte{0x01, 0x02}))
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add([]byte{0x80})
	f.Add(bytes.Repeat([]byte{0xff}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 1 << 10
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			b, err := ReadFrame(r, buf, cap)
			if err != nil {
				return
			}
			if len(b) == 0 || len(b) > cap {
				t.Fatalf("accepted frame of %d bytes under cap %d", len(b), cap)
			}
			buf = b[:0]
		}
	})
}
