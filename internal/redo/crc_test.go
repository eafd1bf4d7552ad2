package redo

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestFrameChecksumBitFlip flips every byte of an encoded frame in turn and
// asserts ReadFrame never silently returns a record: body corruption must be
// a *ChecksumError, header corruption a length error or truncation.
func TestFrameChecksumBitFlip(t *testing.T) {
	frame := AppendFrame(nil, sampleRecord())
	if len(frame) < frameHeaderSize+1 {
		t.Fatalf("implausibly small frame: %d bytes", len(frame))
	}
	var checksumErrs int
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		rec, _, err := ReadFrame(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected (decoded SCN %d)", i, rec.SCN)
		}
		var ce *ChecksumError
		if errors.As(err, &ce) {
			checksumErrs++
			if ce.Want == ce.Got {
				t.Fatalf("offset %d: checksum error with matching sums: %v", i, err)
			}
		}
	}
	// Every body flip (frame minus the 8-byte header) must surface as a
	// checksum mismatch specifically — that is what gates the archived-log
	// refetch in the receiver.
	if want := len(frame) - frameHeaderSize; checksumErrs < want {
		t.Fatalf("only %d/%d body corruptions reported as ChecksumError", checksumErrs, want)
	}
}

// TestFrameTruncated chops an encoded frame at every possible length and
// asserts ReadFrame reports an error (unexpected EOF) rather than decoding a
// partial record.
func TestFrameTruncated(t *testing.T) {
	frame := AppendFrame(nil, sampleRecord())
	for n := 0; n < len(frame); n++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:n]))
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", n, len(frame))
		}
		if errors.Is(err, ErrEndOfLog) {
			t.Fatalf("truncation to %d bytes misread as end of log", n)
		}
	}
	// Zero bytes is a clean EOF (connection closed between frames).
	if _, _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty reader: got %v, want io.EOF", err)
	}
}

// TestFrameChecksumRoundTrip checks a healthy frame still round-trips and
// that AppendFrame and WriteFrame produce identical bytes.
func TestFrameChecksumRoundTrip(t *testing.T) {
	r := sampleRecord()
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, r)
	if err != nil {
		t.Fatal(err)
	}
	if app := AppendFrame(nil, r); !bytes.Equal(app, buf.Bytes()) || n != len(app) {
		t.Fatalf("WriteFrame and AppendFrame disagree (%d vs %d bytes)", n, len(app))
	}
	got, size, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SCN != r.SCN || len(got.CVs) != len(r.CVs) {
		t.Fatalf("round trip mangled record: %+v", got)
	}
	if size != EncodedSize(r) {
		t.Fatalf("ReadFrame size = %d, EncodedSize = %d", size, EncodedSize(r))
	}
}

// TestEOLSentinel verifies the header-only EOL frame still decodes as
// ErrEndOfLog under the checksummed format.
func TestEOLSentinel(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEOL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4 {
		t.Fatalf("EOL frame is %d bytes, want header-only 4", buf.Len())
	}
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrEndOfLog) {
		t.Fatalf("got %v, want ErrEndOfLog", err)
	}
}
