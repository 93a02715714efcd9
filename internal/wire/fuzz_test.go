package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// fuzzMaxFrames bounds how many frames one input may decode, and
// fuzzInflateLimit how far one payload may inflate, so every fuzz
// iteration stays cheap whatever the header and payloads claim.
const (
	fuzzMaxFrames    = 64
	fuzzInflateLimit = 64 << 10
)

// FuzzReadStream feeds arbitrary bytes through the whole client-side
// decode path: ReadHeader, up to fuzzMaxFrames ReadFrame calls, then
// bounded Decompress of flate payloads and DecodeDelta of delta ones.
// Hostile input must come back as errors, never panics; and every
// frame that does decode must survive WriteHeader/WriteFrame and a
// second decode unchanged.
func FuzzReadStream(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteHeader(&seed, 2)
	_ = WriteFrame(&seed, Frame{Index: 1, Kind: FrameDBox, Status: FrameOK,
		Codec: CodecDelta, Payload: EncodeDelta(Delta{FullLen: 9, NewID: 3, Tombstones: []int64{4}, Entering: []byte("{}")})})
	comp, _ := Compress(bytes.Repeat([]byte("kyrix "), 64))
	_ = WriteFrame(&seed, Frame{Index: 0, Kind: FrameTile, Status: FrameOK, Codec: CodecFlate, Payload: comp})
	f.Add(seed.Bytes())
	f.Add(append([]byte(Magic+"\x03\x01"), hostileFrame...))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		n, err := ReadHeader(br)
		if err != nil {
			return
		}
		var frames []Frame
		for i := 0; i < n && i < fuzzMaxFrames; i++ {
			fr, err := ReadFrame(br)
			if err != nil {
				break
			}
			frames = append(frames, fr)
			payload := fr.Payload
			if fr.Codec.Compressed() {
				if payload, err = Decompress(payload, fuzzInflateLimit); err != nil {
					continue
				}
			}
			if fr.Codec.IsDelta() {
				_, _ = DecodeDelta(payload)
			}
		}

		var buf bytes.Buffer
		if err := WriteHeader(&buf, len(frames)); err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			if err := WriteFrame(&buf, fr); err != nil {
				t.Fatal(err)
			}
		}
		rbr := bufio.NewReader(&buf)
		if got, err := ReadHeader(rbr); err != nil || got != len(frames) {
			t.Fatalf("re-read header: n=%d err=%v, want %d", got, err, len(frames))
		}
		for i, want := range frames {
			got, err := ReadFrame(rbr)
			if err != nil {
				t.Fatalf("re-read frame %d: %v", i, err)
			}
			if !sameFrame(got, want) {
				t.Fatalf("frame %d changed across a round trip: %+v, want %+v", i, got, want)
			}
		}
	})
}
