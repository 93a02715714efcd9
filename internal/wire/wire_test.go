package wire

import (
	"bufio"
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

func TestHeaderVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 7); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != Version {
		t.Fatalf("header version byte = %d, want %d", got, Version)
	}
	n, err := ReadHeader(bufio.NewReader(&buf))
	if err != nil || n != 7 {
		t.Fatalf("header: n=%d err=%v, want n=7", n, err)
	}
	// An unknown version is rejected.
	var bad bytes.Buffer
	bad.WriteString(Magic)
	bad.WriteByte(4)
	bad.WriteByte(1)
	if _, err := ReadHeader(bufio.NewReader(&bad)); err == nil {
		t.Fatal("version 4 must not be readable")
	}
}

// TestV2CannotCarryCodec: v2 frames had no codec byte, so a v2 stream
// is refused at its header rather than misread as v3 frames; on a v3
// stream an unknown codec byte is rejected.
func TestV2CannotCarryCodec(t *testing.T) {
	var v2 bytes.Buffer
	v2.WriteString(Magic)
	v2.WriteByte(2)
	v2.WriteByte(1)
	// One v2 frame: index, kind, status, length, payload — no codec.
	v2.Write([]byte{0, byte(FrameTile), byte(FrameOK), 1, 'x'})
	if _, err := ReadHeader(bufio.NewReader(&v2)); err == nil {
		t.Fatal("a v2 stream must not be readable")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0, byte(FrameTile), byte(FrameOK), 9, 0})
	if _, err := ReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("unknown frame codec must fail to decode")
	}
}

func TestFrameRoundTripV3(t *testing.T) {
	frames := []Frame{
		{Index: 0, Kind: FrameTile, Status: FrameOK, Codec: CodecRaw, Payload: []byte("raw")},
		{Index: 1, Kind: FrameDBox, Status: FrameOK, Codec: CodecFlate, Payload: []byte("deflated bytes")},
		{Index: 2, Kind: FrameDBox, Status: FrameOK, Codec: CodecDelta, Payload: []byte("delta")},
		{Index: 3, Kind: FrameDBox, Status: FrameOK, Codec: CodecDeltaFlate, Payload: nil},
		{Index: 4, Kind: FrameTile, Status: FrameInternal, Codec: CodecRaw, Payload: []byte("boom")},
		{Index: 6, Kind: FrameDBox, Status: FrameBadRequest, Codec: CodecRaw, Payload: []byte("bad box")},
		{Index: 5, Kind: FrameTile, Status: FrameInternal, Codec: CodecRaw, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf, len(frames)); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	n, err := ReadHeader(br)
	if err != nil || n != len(frames) {
		t.Fatalf("header: n=%d err=%v", n, err)
	}
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(got, want) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	// The stream is exactly consumed: one more read is a clean EOF.
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

func sameFrame(a, b Frame) bool {
	return a.Index == b.Index && a.Kind == b.Kind && a.Status == b.Status &&
		a.Codec == b.Codec && bytes.Equal(a.Payload, b.Payload)
}

func TestFrameTruncatedAndCorrupt(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteHeader(&buf, 2)
	_ = WriteFrame(&buf, Frame{Index: 0, Kind: FrameTile, Status: FrameOK, Payload: []byte("0123456789")})
	_ = WriteFrame(&buf, Frame{Index: 1, Kind: FrameDBox, Status: FrameOK, Codec: CodecFlate, Payload: []byte("abcdef")})
	whole := buf.Bytes()

	// Truncating the stream at every possible boundary must yield an
	// error (or a clean EOF strictly before both frames arrived) —
	// never a bogus success. A cut inside a frame is io.ErrUnexpectedEOF.
	for cut := 0; cut < len(whole); cut++ {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		n, err := ReadHeader(br)
		if err != nil {
			continue // truncated inside the header: detected
		}
		got := 0
		for got < n {
			if _, err = ReadFrame(br); err != nil {
				break
			}
			got++
		}
		if got >= n {
			t.Fatalf("cut at %d bytes still decoded %d/%d frames", cut, got, n)
		}
		if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d bytes: %v, want io.EOF or io.ErrUnexpectedEOF", cut, err)
		}
	}

	// Corrupt magic.
	bad := append([]byte{}, whole...)
	bad[0] = 'X'
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Unknown kind and status bytes (codec: TestV2CannotCarryCodec).
	for name, f := range map[string]Frame{
		"kind":   {Kind: FrameKind(7)},
		"status": {Status: FrameStatus(9)},
	} {
		var fb bytes.Buffer
		_ = WriteFrame(&fb, f)
		if _, err := ReadFrame(bufio.NewReader(&fb)); err == nil {
			t.Fatalf("unknown frame %s must fail", name)
		}
	}
	// A payload length above MaxFramePayload must error out instead of
	// attempting the allocation.
	huge := []byte{0, byte(FrameTile), byte(FrameOK), byte(CodecRaw), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("absurd payload length must fail")
	}
}

// hostileFrame is a 12-byte frame whose length prefix claims a
// MaxFramePayload-sized (256 MiB) payload but which carries 3 bytes.
var hostileFrame = []byte{0, byte(FrameTile), byte(FrameOK), byte(CodecRaw),
	0x80, 0x80, 0x80, 0x80, 0x01, 'a', 'b', 'c'}

// TestReadFrameHostileLength: a frame claiming a payload far larger
// than the bytes behind it costs what it sent, not what it claimed.
func TestReadFrameHostileLength(t *testing.T) {
	if len(hostileFrame) != 12 {
		t.Fatalf("hostile frame is %d bytes", len(hostileFrame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(hostileFrame)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated hostile frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("hostile 12-byte frame allocated %d bytes", got)
	}

	// A genuine payload above the eager threshold still round-trips.
	big := Frame{Kind: FrameDBox, Payload: bytes.Repeat([]byte("row,"), eagerPayload/2)}
	var buf bytes.Buffer
	_ = WriteFrame(&buf, big)
	got, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil || !sameFrame(got, big) {
		t.Fatalf("large frame round trip: %v", err)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	src := bytes.Repeat([]byte("kyrix rows kyrix rows "), 512)
	comp, err := Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(src) {
		t.Fatalf("redundant payload did not shrink: %d -> %d", len(src), len(comp))
	}
	back, err := Decompress(comp, MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("round trip mismatch")
	}
}

// TestDecompressionBombBounded is the regression test for the bounded
// inflate: a small compressed payload claiming to expand far past the
// limit must error out instead of allocating the expansion.
func TestDecompressionBombBounded(t *testing.T) {
	// ~1 MB of zeros deflates to ~1 KB: a 1000x bomb relative to a
	// 64 KB limit.
	bomb, err := Compress(make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if len(bomb) > 16<<10 {
		t.Fatalf("bomb unexpectedly large: %d bytes", len(bomb))
	}
	if _, err := Decompress(bomb, 64<<10); err == nil {
		t.Fatal("bomb exceeding the limit must be rejected")
	}
	// Exactly at the limit is fine.
	if out, err := Decompress(bomb, 1<<20); err != nil || len(out) != 1<<20 {
		t.Fatalf("at-limit payload rejected: %d bytes, %v", len(out), err)
	}
}

func TestDecompressCorruptAndTruncated(t *testing.T) {
	if _, err := Decompress([]byte{0xde, 0xad, 0xbe, 0xef}, 1<<16); err == nil {
		t.Fatal("garbage must not inflate")
	}
	good, err := Compress(bytes.Repeat([]byte("abc"), 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(good[:len(good)/2], 1<<16); err == nil {
		t.Fatal("truncated stream must not inflate")
	}
}

func TestShouldCompressHeuristic(t *testing.T) {
	if ShouldCompress([]byte("tiny")) {
		t.Fatal("tiny payloads must skip compression")
	}
	redundant := bytes.Repeat([]byte(`{"x":1.5,"y":2.5},`), 200)
	if !ShouldCompress(redundant) {
		t.Fatal("redundant JSON must compress")
	}
	noise := make([]byte, 64<<10)
	rnd := rand.New(rand.NewSource(42))
	rnd.Read(noise)
	if ShouldCompress(noise) {
		t.Fatal("high-entropy payload must skip compression")
	}
	// Sanity: the heuristic agrees with flate on the noise payload.
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flateLevel)
	fw.Write(noise)
	fw.Close()
	if buf.Len() < len(noise)*99/100 {
		t.Fatalf("flate shrank noise to %d/%d — heuristic assumption broken", buf.Len(), len(noise))
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := Delta{
		FullLen:    123456,
		NewID:      0xDEADBEEFCAFEF00D,
		Tombstones: []int64{0, 1, -7, 1 << 40, 42},
		Entering:   []byte("entering payload bytes"),
	}
	b := EncodeDelta(d)
	got, err := DecodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.FullLen != d.FullLen || got.NewID != d.NewID {
		t.Fatalf("got %+v", got)
	}
	if len(got.Tombstones) != len(d.Tombstones) {
		t.Fatalf("tombstones = %v", got.Tombstones)
	}
	for i := range d.Tombstones {
		if got.Tombstones[i] != d.Tombstones[i] {
			t.Fatalf("tombstone %d = %d, want %d", i, got.Tombstones[i], d.Tombstones[i])
		}
	}
	if !bytes.Equal(got.Entering, d.Entering) {
		t.Fatal("entering payload mismatch")
	}

	// Empty delta (pure overlap, nothing entering or leaving).
	b = EncodeDelta(Delta{FullLen: 10, NewID: 1})
	if got, err := DecodeDelta(b); err != nil || len(got.Tombstones) != 0 || len(got.Entering) != 0 {
		t.Fatalf("empty delta: %+v, %v", got, err)
	}
}

func TestDeltaCorrupt(t *testing.T) {
	d := Delta{FullLen: 64, NewID: 7, Tombstones: []int64{1, 2, 3}, Entering: []byte("x")}
	b := EncodeDelta(d)
	// Every strict prefix must fail or decode without panicking.
	for cut := 0; cut < len(b)-1; cut++ {
		_, _ = DecodeDelta(b[:cut])
	}
	// A tombstone count that exceeds the remaining bytes is corruption,
	// not an allocation.
	bad := []byte{10, 0, 0, 0, 0, 0, 0, 0, 0, // fullLen + id
		0xFF, 0xFF, 0xFF, 0xFF, 0x7F} // absurd tombstone count
	if _, err := DecodeDelta(bad); err == nil {
		t.Fatal("absurd tombstone count must fail")
	}
	if _, err := DecodeDelta(nil); err == nil {
		t.Fatal("empty delta payload must fail")
	}
}

func TestPayloadIDStable(t *testing.T) {
	a := PayloadID([]byte("payload"))
	if a != PayloadID([]byte("payload")) {
		t.Fatal("id not deterministic")
	}
	if a == PayloadID([]byte("payloae")) {
		t.Fatal("distinct payloads collided (fnv64 on 7 bytes)")
	}
}
