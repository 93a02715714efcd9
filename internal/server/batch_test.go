package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"kyrix/internal/wire"
)

// postBatchStatus posts a raw /batch body and returns the HTTP status,
// draining the response.
func postBatchStatus(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// postBatch posts a request and fully decodes the framed stream,
// returning frames indexed by item position.
func postBatch(t *testing.T, url string, req BatchRequest) []wire.Frame {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %s: %s", resp.Status, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BatchContentType {
		t.Fatalf("content type = %q, want %q", ct, BatchContentType)
	}
	br := bufio.NewReader(resp.Body)
	n, err := wire.ReadHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(req.Items) {
		t.Fatalf("announced %d frames for %d items", n, len(req.Items))
	}
	out := make([]wire.Frame, n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Index >= n || seen[f.Index] {
			t.Fatalf("bogus frame index %d", f.Index)
		}
		seen[f.Index] = true
		out[f.Index] = f
	}
	if _, err := wire.ReadFrame(br); err != io.EOF {
		t.Fatalf("stream should end after %d frames, got %v", n, err)
	}
	return out
}

func TestBatchV2MixedTileDBox(t *testing.T) {
	srv, hs := newPointsServer(t, 2000, 4096, 2048)

	get := func(path string) []byte {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, data)
		}
		return data
	}

	req := BatchRequest{
		V: wire.Version, Canvas: "main", Codec: CodecJSON, Comp: CompOff,
		Items: []BatchItem{
			{Kind: "tile", Layer: 0, Size: 512, Col: 1, Row: 1},
			{Kind: "dbox", Layer: 0, MinX: 100, MinY: 100, MaxX: 900, MaxY: 700},
			{Kind: "tile", Layer: 0, Size: 512, Col: -3, Row: 0},                 // per-frame error
			{Kind: "dbox", Layer: 0, MinX: 500, MinY: 500, MaxX: 100, MaxY: 100}, // invalid box
			{Kind: "tile", Layer: 9, Size: 512, Col: 0, Row: 0},                  // no such layer
			{Kind: "tile", Layer: 0, Size: 512, Col: 2, Row: 0},
		},
	}
	frames := postBatch(t, hs.URL, req)

	// Raw frames carry exactly the bytes the single-request endpoints
	// would have returned — no envelope.
	if frames[0].Status != wire.FrameOK || frames[0].Kind != wire.FrameTile {
		t.Fatalf("frame 0 = %+v", frames[0])
	}
	if want := get("/tile?canvas=main&layer=0&size=512&col=1&row=1"); !bytes.Equal(frames[0].Payload, want) {
		t.Fatal("tile frame payload differs from GET /tile")
	}
	if frames[1].Status != wire.FrameOK || frames[1].Kind != wire.FrameDBox {
		t.Fatalf("frame 1 = %+v", frames[1])
	}
	if want := get("/dbox?canvas=main&layer=0&minx=100&miny=100&maxx=900&maxy=700"); !bytes.Equal(frames[1].Payload, want) {
		t.Fatal("dbox frame payload differs from GET /dbox")
	}
	if frames[5].Status != wire.FrameOK {
		t.Fatalf("frame 5 = %+v", frames[5])
	}

	// Failures are isolated per frame, siblings unaffected.
	for _, idx := range []int{2, 3, 4} {
		if frames[idx].Status != wire.FrameBadRequest {
			t.Fatalf("frame %d status = %d, want bad request", idx, frames[idx].Status)
		}
		if len(frames[idx].Payload) == 0 {
			t.Fatalf("frame %d error payload empty", idx)
		}
	}

	// Stats: one batch, tile/dbox items counted by kind.
	if got := srv.Stats.BatchRequests.Load(); got != 1 {
		t.Fatalf("BatchRequests = %d", got)
	}
	if got := srv.Stats.BoxRequests.Load(); got != 3 { // 2 batch dboxes + 1 GET /dbox
		t.Fatalf("BoxRequests = %d", got)
	}
}

// singleTile fetches one tile through GET /tile, the payload a batch
// tile frame must reproduce byte for byte.
func singleTile(t *testing.T, url string, col, row int, codec Codec) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/tile?canvas=main&layer=0&size=512&col=%d&row=%d&codec=%s", url, col, row, codec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single tile: %s: %s", resp.Status, body)
	}
	return body
}

func batchTile(col, row int) BatchItem {
	return BatchItem{Kind: "tile", Layer: 0, Size: 512, Col: col, Row: row}
}

// TestBatchEndpoint checks the wire contract of POST /batch: payloads
// identical to single-tile GETs, per-tile errors isolated, the binary
// codec, and POST-only.
func TestBatchEndpoint(t *testing.T) {
	_, hs := newPointsServer(t, 2000, 4096, 2048)

	frames := postBatch(t, hs.URL, BatchRequest{
		V: wire.Version, Canvas: "main", Comp: CompOff,
		Items: []BatchItem{batchTile(0, 0), batchTile(1, 0), batchTile(2, 1), batchTile(-1, 0)},
	})
	for i, want := range []struct{ col, row int }{{0, 0}, {1, 0}, {2, 1}} {
		f := frames[i]
		if f.Status != wire.FrameOK || f.Kind != wire.FrameTile || f.Codec != wire.CodecRaw {
			t.Fatalf("frame %d = %+v", i, f)
		}
		if !bytes.Equal(f.Payload, singleTile(t, hs.URL, want.col, want.row, CodecJSON)) {
			t.Fatalf("frame %d payload differs from GET /tile", i)
		}
		if _, err := Decode(f.Payload, CodecJSON); err != nil {
			t.Fatalf("frame %d payload undecodable: %v", i, err)
		}
	}
	if f := frames[3]; f.Status != wire.FrameBadRequest || len(f.Payload) == 0 {
		t.Fatalf("negative tile frame = %+v, want a per-tile error", f)
	}

	// The binary codec round-trips too.
	frames = postBatch(t, hs.URL, BatchRequest{V: wire.Version, Canvas: "main", Codec: CodecBinary, Comp: CompOff,
		Items: []BatchItem{batchTile(0, 0)}})
	if frames[0].Status != wire.FrameOK || !bytes.Equal(frames[0].Payload, singleTile(t, hs.URL, 0, 0, CodecBinary)) {
		t.Fatalf("binary frame = %+v", frames[0])
	}
	if _, err := Decode(frames[0].Payload, CodecBinary); err != nil {
		t.Fatalf("binary payload undecodable: %v", err)
	}

	resp, err := http.Get(hs.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch status = %d", resp.StatusCode)
	}
}

// TestBatchV2Validation covers what /batch rejects: request-level
// mistakes are a 400 before any item runs, item-level ones an error
// frame beside good siblings.
func TestBatchV2Validation(t *testing.T) {
	_, hs := newPointsServer(t, 2000, 4096, 2048)
	post := func(req BatchRequest) int {
		t.Helper()
		body, _ := json.Marshal(req)
		return postBatchStatus(t, hs.URL, body)
	}

	// Request-level failures.
	if code := post(BatchRequest{V: wire.Version, Canvas: "main"}); code != http.StatusBadRequest {
		t.Fatalf("empty items = %d", code)
	}
	big := BatchRequest{V: wire.Version, Canvas: "main"}
	for i := 0; i <= MaxBatchItems; i++ {
		big.Items = append(big.Items, batchTile(i, 0))
	}
	if code := post(big); code != http.StatusBadRequest {
		t.Fatalf("oversize batch = %d", code)
	}
	if code := post(BatchRequest{V: wire.Version, Canvas: "main", Codec: "xml",
		Items: []BatchItem{batchTile(0, 0)}}); code != http.StatusBadRequest {
		t.Fatalf("unknown codec = %d", code)
	}
	if code := postBatchStatus(t, hs.URL, []byte(`{"v":4,"canvas":"main","items":[{"kind":"tile","size":512}]}`)); code != http.StatusBadRequest {
		t.Fatalf("v4 request = %d", code)
	}
	if code := postBatchStatus(t, hs.URL, []byte(`{"v":3,"canvas":`)); code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", code)
	}

	// Item-level failures are bad-request frames; the good sibling
	// still carries the single-request payload.
	badSize := batchTile(0, 0)
	badSize.Size = 0
	badDesign := batchTile(0, 0)
	badDesign.Design = "quantum"
	frames := postBatch(t, hs.URL, BatchRequest{
		V: wire.Version, Canvas: "main", Comp: CompOff,
		Items: []BatchItem{batchTile(0, 0), badSize, badDesign, {Kind: "polygon", Layer: 0}},
	})
	if frames[0].Status != wire.FrameOK || !bytes.Equal(frames[0].Payload, singleTile(t, hs.URL, 0, 0, CodecJSON)) {
		t.Fatalf("frame 0 = %+v, want the GET /tile payload", frames[0])
	}
	for i, name := range []string{"zero size", "unknown design", "unknown kind"} {
		if f := frames[1+i]; f.Status != wire.FrameBadRequest || len(f.Payload) == 0 {
			t.Fatalf("%s frame = %+v, want a bad-request error frame", name, f)
		}
	}
	// An unknown canvas fails every item, still per frame.
	frames = postBatch(t, hs.URL, BatchRequest{V: wire.Version, Canvas: "nope", Items: []BatchItem{batchTile(0, 0)}})
	if frames[0].Status != wire.FrameBadRequest {
		t.Fatalf("unknown canvas frame = %+v", frames[0])
	}
}

// TestBatchRejectsRetiredVersions: the buffered-JSON protocol (no "v",
// or "v":1) and the codec-less framed stream ("v":2) are gone. Each is
// a request-level 400 that counts as no batch.
func TestBatchRejectsRetiredVersions(t *testing.T) {
	srv, hs := newPointsServer(t, 200, 4096, 2048)
	for _, body := range []string{
		`{"canvas":"main","layer":0,"size":512,"tiles":[{"col":0,"row":0}]}`,
		`{"v":1,"canvas":"main","layer":0,"size":512,"tiles":[{"col":0,"row":0}]}`,
		`{"v":2,"canvas":"main","items":[{"kind":"tile","layer":0,"size":512}]}`,
	} {
		if code := postBatchStatus(t, hs.URL, []byte(body)); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, code)
		}
	}
	if got := srv.Stats.BatchRequests.Load(); got != 0 {
		t.Fatalf("rejected bodies counted %d batch requests", got)
	}
}

// TestBatchV2CoalescesWithSingles verifies batch items ride the same
// cache as single requests: a tile served via GET /tile is a backend
// cache hit when re-requested inside a batch.
func TestBatchV2CoalescesWithSingles(t *testing.T) {
	srv, hs := newPointsServer(t, 1000, 4096, 2048)
	resp, err := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=1&row=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	dbqBefore := srv.Stats.DBQueries.Load()
	frames := postBatch(t, hs.URL, BatchRequest{
		V: wire.Version, Canvas: "main",
		Items: []BatchItem{{Kind: "tile", Layer: 0, Size: 512, Col: 1, Row: 1}},
	})
	if frames[0].Status != wire.FrameOK {
		t.Fatalf("frame = %+v", frames[0])
	}
	if got := srv.Stats.DBQueries.Load() - dbqBefore; got != 0 {
		t.Fatalf("batched re-request ran %d queries, want cache hit", got)
	}
}

// errWriter fails every write, as a response whose client went away.
type errWriter struct{ writes int }

func (e *errWriter) Write(p []byte) (int, error) {
	e.writes++
	return 0, errors.New("client gone")
}

// TestBatchV2FrameRoundTrip checks the server's frame writer: frames
// written from concurrent workers land whole (never interleaved) and
// decode back, each write is flushed, the byte totals are summed per
// frame, and the first write error drops every later frame.
func TestBatchV2FrameRoundTrip(t *testing.T) {
	frames := []wire.Frame{
		{Index: 0, Kind: wire.FrameTile, Status: wire.FrameOK, Codec: wire.CodecRaw, Payload: []byte("tile payload")},
		{Index: 2, Kind: wire.FrameDBox, Status: wire.FrameBadRequest, Codec: wire.CodecRaw, Payload: []byte("bad box")},
		{Index: 1, Kind: wire.FrameDBox, Status: wire.FrameOK, Codec: wire.CodecFlate, Payload: nil},
		{Index: 3, Kind: wire.FrameTile, Status: wire.FrameInternal, Codec: wire.CodecRaw, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Index: 4, Kind: wire.FrameDBox, Status: wire.FrameOK, Codec: wire.CodecDeltaFlate, Payload: bytes.Repeat([]byte("delta"), 300)},
	}
	rec := httptest.NewRecorder()
	if err := wire.WriteHeader(rec, len(frames)); err != nil {
		t.Fatal(err)
	}
	fw := newFrameWriter(rec)
	var wantBytes, wantRaw int64
	var wg sync.WaitGroup
	for i, f := range frames {
		rawLen := 10*len(f.Payload) + i
		wantBytes += int64(len(f.Payload))
		wantRaw += int64(rawLen)
		wg.Add(1)
		go func(f wire.Frame, rawLen int) {
			defer wg.Done()
			fw.writeFrame(f, rawLen)
		}(f, rawLen)
	}
	wg.Wait()
	if !rec.Flushed {
		t.Fatal("frame writes were not flushed")
	}
	if b, raw := fw.totals(); b != wantBytes || raw != wantRaw {
		t.Fatalf("totals = (%d, %d), want (%d, %d)", b, raw, wantBytes, wantRaw)
	}

	br := bufio.NewReader(bytes.NewReader(rec.Body.Bytes()))
	n, err := wire.ReadHeader(br)
	if err != nil || n != len(frames) {
		t.Fatalf("header: n=%d err=%v", n, err)
	}
	got := make(map[int]wire.Frame, n)
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got[f.Index] = f
	}
	for _, want := range frames {
		f, ok := got[want.Index]
		if !ok || f.Kind != want.Kind || f.Status != want.Status || f.Codec != want.Codec || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", want.Index, f, want)
		}
	}
	// The stream is exactly consumed: one more read is a clean EOF.
	if _, err := wire.ReadFrame(br); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}

	ew := &errWriter{}
	dead := &frameWriter{w: ew}
	for _, f := range frames {
		dead.writeFrame(f, len(f.Payload))
	}
	if ew.writes != 1 {
		t.Fatalf("writes after the first error = %d, want the stream dropped", ew.writes-1)
	}
	if b, raw := dead.totals(); b != 0 || raw != 0 {
		t.Fatalf("failed stream counted (%d, %d) bytes", b, raw)
	}
}

// TestBatchV2TruncatedAndCorrupt cuts a real /batch response at every
// byte: no cut may decode as the whole batch. A damaged magic or a
// retired version byte fails at the header.
func TestBatchV2TruncatedAndCorrupt(t *testing.T) {
	_, hs := newPointsServer(t, 300, 4096, 2048)
	body, _ := json.Marshal(BatchRequest{
		V: wire.Version, Canvas: "main",
		Items: []BatchItem{
			batchTile(0, 0),
			{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024},
			batchTile(-1, 0),
		},
	})
	resp, err := http.Post(hs.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s: %v", resp.Status, err)
	}

	decodeAll := func(b []byte) (got, n int, err error) {
		br := bufio.NewReader(bytes.NewReader(b))
		if n, err = wire.ReadHeader(br); err != nil {
			return 0, 0, err
		}
		for got < n {
			if _, err = wire.ReadFrame(br); err != nil {
				return got, n, err
			}
			got++
		}
		return got, n, nil
	}
	if got, n, err := decodeAll(whole); err != nil || got != 3 || n != 3 {
		t.Fatalf("whole stream: %d/%d frames, %v", got, n, err)
	}
	for cut := 0; cut < len(whole); cut++ {
		got, n, err := decodeAll(whole[:cut])
		if err == nil {
			t.Fatalf("cut at %d of %d bytes still decoded %d/%d frames", cut, len(whole), got, n)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d bytes: %v, want io.EOF or io.ErrUnexpectedEOF", cut, err)
		}
	}

	bad := append([]byte{}, whole...)
	bad[0] = 'X'
	if _, _, err := decodeAll(bad); err == nil {
		t.Fatal("bad magic must fail")
	}
	bad = append([]byte{}, whole...)
	bad[len(wire.Magic)] = 2
	if _, _, err := decodeAll(bad); err == nil {
		t.Fatal("a v2 stream header must fail")
	}
}
