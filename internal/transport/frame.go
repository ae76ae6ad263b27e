package transport

// The wire codec: a Frame is flattened to a fixed header (from, to,
// round) followed by two length-prefixed fields (tag, data) in the
// exact field layout of internal/broadcast's message encodings
// (broadcast.AppendField/ReadField), and travels on stream links as a
// single 4-byte big-endian length prefix plus that payload. The codec
// is total on arbitrary input: any byte string either decodes to a
// Frame or returns an error chaining ErrBadFrame — never a panic
// (fuzzed in frame_fuzz_test.go, including truncated and oversized
// frames).

import (
	"encoding/binary"
	"fmt"
	"io"

	"relaxedbvc/internal/broadcast"
)

// DefaultMaxFrame is the frame size limit applied when a config leaves
// MaxFrame zero: 1 MiB, far above any EIG relay (vectors are tens of
// bytes) yet small enough to bound a malicious length prefix.
const DefaultMaxFrame = 1 << 20

// frameHeaderLen is the fixed prefix of an encoded frame: u16 from,
// u16 to, u32 round (two's complement for the -1 Start round).
const frameHeaderLen = 8

// EncodeFrame flattens f to the wire payload (without the stream
// length prefix).
func EncodeFrame(f *Frame) []byte {
	return appendPayload(make([]byte, 0, payloadLen(f)), f)
}

// payloadLen is the encoded payload size of f, without the prefix.
func payloadLen(f *Frame) int { return frameHeaderLen + 8 + len(f.Tag) + len(f.Data) }

func appendPayload(buf []byte, f *Frame) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.From))
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.To))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(f.Round)))
	buf = broadcast.AppendField(buf, []byte(f.Tag))
	return broadcast.AppendField(buf, f.Data)
}

// AppendFrame appends f's stream form — the 4-byte length prefix and
// the payload — to buf. A payload larger than maxFrame (0 =
// DefaultMaxFrame) fails with ErrFrameTooLarge and returns buf
// unchanged, so a buffer of queued frames never holds a partial one.
func AppendFrame(buf []byte, f *Frame, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	size := payloadLen(f)
	if size > maxFrame {
		return buf, fmt.Errorf("%w: %d-byte frame, limit %d", ErrFrameTooLarge, size, maxFrame)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(size))
	return appendPayload(buf, f), nil
}

// DecodeFrame parses a payload produced by EncodeFrame. Trailing bytes
// after the data field are rejected, so the encoding is canonical:
// DecodeFrame(EncodeFrame(f)) round-trips and nothing else does.
func DecodeFrame(b []byte) (Frame, error) {
	var f Frame
	if len(b) < frameHeaderLen {
		return f, fmt.Errorf("%w: %d-byte payload shorter than the %d-byte header", ErrBadFrame, len(b), frameHeaderLen)
	}
	f.From = int(binary.BigEndian.Uint16(b[0:]))
	f.To = int(int16(binary.BigEndian.Uint16(b[2:])))
	f.Round = int(int32(binary.BigEndian.Uint32(b[4:])))
	tag, rest, err := broadcast.ReadField(b[frameHeaderLen:])
	if err != nil {
		return f, fmt.Errorf("%w: tag field: %v", ErrBadFrame, err)
	}
	data, rest, err := broadcast.ReadField(rest)
	if err != nil {
		return f, fmt.Errorf("%w: data field: %v", ErrBadFrame, err)
	}
	if len(rest) != 0 {
		return f, fmt.Errorf("%w: %d trailing bytes after data field", ErrBadFrame, len(rest))
	}
	f.Tag = string(tag)
	if len(data) > 0 {
		f.Data = data
	}
	return f, nil
}

// WriteFrame writes one length-prefixed frame to w in a single Write.
// Frames larger than maxFrame (0 = DefaultMaxFrame) fail with
// ErrFrameTooLarge before any byte is written, keeping the stream
// framing intact.
func WriteFrame(w io.Writer, f *Frame, maxFrame int) (int, error) {
	buf, err := AppendFrame(nil, f, maxFrame)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	if err != nil {
		return n, fmt.Errorf("%w: write: %v", ErrTransport, err)
	}
	return n, nil
}

// ReadFrame reads one length-prefixed frame from r. A length prefix
// above maxFrame (0 = DefaultMaxFrame) fails with ErrFrameTooLarge
// without allocating the announced buffer; short reads and undecodable
// payloads chain ErrBadFrame; a clean EOF before the first prefix byte
// surfaces as io.EOF wrapped in ErrTransport so stream loops can
// terminate on it.
func ReadFrame(r io.Reader, maxFrame int) (Frame, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: read length prefix: %w", ErrTransport, err)
	}
	size := int(binary.BigEndian.Uint32(prefix[:]))
	if size > maxFrame {
		return Frame{}, fmt.Errorf("%w: announced %d bytes, limit %d", ErrFrameTooLarge, size, maxFrame)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated %d-byte frame: %v", ErrBadFrame, size, err)
	}
	return DecodeFrame(payload)
}
