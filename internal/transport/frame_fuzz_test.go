package transport

// Fuzz coverage for the wire codec: DecodeFrame and ReadFrame must be
// total on arbitrary input — every byte string either yields a Frame
// that re-encodes canonically or an error chaining ErrTransport, and
// nothing panics. Truncated and oversized frames are seeded explicitly.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func fuzzSeeds() [][]byte {
	frames := []Frame{
		{From: 0, To: 1, Round: 0, Tag: "eig", Data: []byte("payload")},
		{From: 3, To: Broadcast, Round: -1, Tag: eorTag, Data: []byte{1}},
		{From: 65535, To: 2, Round: 1 << 30, Tag: "", Data: nil},
		{From: 1, To: 0, Round: -1, Tag: helloTag},
	}
	seeds := make([][]byte, 0, len(frames)+3)
	for i := range frames {
		seeds = append(seeds, EncodeFrame(&frames[i]))
	}
	full := EncodeFrame(&frames[0])
	seeds = append(seeds,
		full[:len(full)-3],                       // truncated data field
		full[:frameHeaderLen-1],                  // shorter than the header
		append(full[:len(full):len(full)], 0xAA), // trailing byte
	)
	return seeds
}

func FuzzFrameDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not chain ErrBadFrame", err)
			}
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("decode error %v does not chain ErrTransport", err)
			}
			return
		}
		if got := EncodeFrame(&fr); !bytes.Equal(got, b) {
			t.Fatalf("decode is not canonical: re-encoded %x from %x", got, b)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		var buf bytes.Buffer
		fr := Frame{From: 0, To: 1, Tag: "eig", Data: s}
		if _, err := WriteFrame(&buf, &fr, 0); err == nil {
			f.Add(buf.Bytes())
		}
		f.Add(s)
	}
	// An announced length far beyond the limit must fail before
	// allocating.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		fr, err := ReadFrame(r, 1<<16)
		if err != nil {
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("read error %v does not chain ErrTransport", err)
			}
			return
		}
		// A successful read must reproduce exactly the consumed prefix
		// when written back (stream framing is canonical too).
		var out bytes.Buffer
		if _, err := WriteFrame(&out, &fr, 1<<16); err != nil {
			t.Fatalf("re-write of decoded frame: %v", err)
		}
		consumed := len(b) - r.Len()
		if !bytes.Equal(out.Bytes(), b[:consumed]) {
			t.Fatalf("stream round-trip mismatch: wrote %x, consumed %x", out.Bytes(), b[:consumed])
		}
	})
}

// FuzzFrameStream checks the batched stream form: frames appended with
// AppendFrame into one buffer read back in order through ReadFrame over
// a bufio.Reader, and a frame over the limit is refused without
// touching the frames around it. spec is consumed as (tag length, data
// length, tag bytes, data bytes) records.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte("\x03\x07eigpayload\x04\x00\x00eor"), uint8(16))
	f.Add([]byte("\x01\xff!"), uint8(0))
	f.Fuzz(func(t *testing.T, spec []byte, limit uint8) {
		maxFrame := frameHeaderLen + 8 + int(limit)%64
		var buf []byte
		var frames []Frame
		for i := 0; len(spec) >= 2; i++ {
			tl, dl := int(spec[0])%8, int(spec[1])
			spec = spec[2:]
			tl = min(tl, len(spec))
			tag := string(spec[:tl])
			spec = spec[tl:]
			dl = min(dl, len(spec))
			fr := Frame{From: i % 7, To: i % 5, Round: i - 1, Tag: tag, Data: spec[:dl]}
			spec = spec[dl:]
			before := bytes.Clone(buf)
			out, err := AppendFrame(buf, &fr, maxFrame)
			if len(EncodeFrame(&fr)) > maxFrame {
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("frame %d over the %d-byte limit: err = %v", i, maxFrame, err)
				}
				if !bytes.Equal(out, before) {
					t.Fatalf("refused frame %d changed the buffer", i)
				}
				continue
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			buf = out
			frames = append(frames, fr)
		}
		r := bufio.NewReaderSize(bytes.NewReader(buf), 16)
		for i, want := range frames {
			got, err := ReadFrame(r, maxFrame)
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(frames), err)
			}
			if got.From != want.From || got.To != want.To || got.Round != want.Round ||
				got.Tag != want.Tag || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
			}
		}
		if _, err := ReadFrame(r, maxFrame); !errors.Is(err, io.EOF) {
			t.Fatalf("after %d frames: err = %v, want io.EOF", len(frames), err)
		}
	})
}
