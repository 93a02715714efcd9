package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peerStub serves /peer with a fixed payload and epoch vector.
func peerStub(t *testing.T, epochs EpochVector, payload []byte, serveErr error) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PeerPath {
			http.NotFound(w, r)
			return
		}
		_ = WritePeerResponse(w, epochs, FrameKindOf("tile"), payload, serveErr, false)
	}))
}

func TestTransportFetchRoundtrip(t *testing.T) {
	payload := []byte(`{"rows":[[1,2.5]]}`)
	hs := peerStub(t, EpochVector{"origin": 7}, payload, nil)
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: 4, Timeout: time.Second})
	got, epochs, err := tr.Fetch(hs.URL, &FillRequest{Key: "k", Kind: "tile"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
	if epochs["origin"] != 7 {
		t.Fatalf("epochs = %v, want origin:7", epochs)
	}
}

// TestTransportCompressedFill: a payload past the worth-it heuristic
// crosses the wire DEFLATE-compressed and is inflated transparently —
// the wire codec reuse the peer protocol exists for.
func TestTransportCompressedFill(t *testing.T) {
	big := make([]byte, 32<<10)
	for i := range big {
		big[i] = byte("abcd"[i%4]) // compressible
	}
	hs := peerStub(t, EpochVector{"origin": 1}, big, nil)
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: 4, Timeout: time.Second})
	got, _, err := tr.Fetch(hs.URL, &FillRequest{Key: "k", Kind: "tile"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(big) {
		t.Fatal("compressed fill did not round-trip")
	}
}

func TestTransportErrors(t *testing.T) {
	hs := peerStub(t, EpochVector{"origin": 3}, nil, errors.New("no such layer"))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: 4, Timeout: time.Second})
	if _, _, err := tr.Fetch(hs.URL, &FillRequest{}); err == nil {
		t.Fatal("error frame must surface as an error")
	}
	if _, _, err := tr.Fetch("http://not-registered", &FillRequest{}); err == nil {
		t.Fatal("unknown peer must fail")
	}
	// A dead peer fails within the timeout instead of hanging.
	dead := NewTransport([]string{"http://127.0.0.1:1"}, TransportConfig{PerPeer: 1, Timeout: 200 * time.Millisecond, Retries: -1})
	start := time.Now()
	if _, _, err := dead.Fetch("http://127.0.0.1:1", &FillRequest{}); err == nil {
		t.Fatal("dead peer must fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("dead-peer failure took too long")
	}
}

// TestTransportConcurrencyBound: the per-peer semaphore admits at most
// perPeer fills at once; the rest queue (and eventually run).
func TestTransportConcurrencyBound(t *testing.T) {
	const bound = 2
	var inFlight, maxSeen atomic.Int64
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		for {
			m := maxSeen.Load()
			if cur <= m || maxSeen.CompareAndSwap(m, cur) {
				break
			}
		}
		<-release
		inFlight.Add(-1)
		_ = WritePeerResponse(w, nil, FrameKindOf("tile"), []byte("x"), nil, false)
	}))
	defer hs.Close()

	tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: bound, Timeout: 5 * time.Second})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = tr.Fetch(hs.URL, &FillRequest{})
		}()
	}
	// Let the first `bound` fills arrive, then release everyone.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight.Load() < bound && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if maxSeen.Load() > bound {
		t.Fatalf("peer saw %d concurrent fills, bound %d", maxSeen.Load(), bound)
	}
}

// TestNodeEpochGossip: Observe merges only advancing components, runs
// the invalidation hook exactly once per adoption, and Fetch folds the
// peer's vector in before returning.
func TestNodeEpochGossip(t *testing.T) {
	hs := peerStub(t, EpochVector{"origin": 5}, []byte("p"), nil)
	defer hs.Close()
	n, err := New(Options{Self: "http://self", Peers: []string{"http://self", hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	var hookCalls atomic.Int64
	n.SetEpochHook(func(EpochVector) { hookCalls.Add(1) })

	n.Observe(nil) // nothing to merge
	n.Observe(EpochVector{})
	if n.Epoch() != 0 || hookCalls.Load() != 0 {
		t.Fatalf("empty observes changed state: epoch=%d hooks=%d", n.Epoch(), hookCalls.Load())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); n.Observe(EpochVector{"a": 3}) }()
	}
	wg.Wait()
	if n.Epoch() != 3 || hookCalls.Load() != 1 {
		t.Fatalf("racing observes: epoch=%d hooks=%d, want 3/1", n.Epoch(), hookCalls.Load())
	}
	n.Observe(EpochVector{"a": 2}) // already covered
	if hookCalls.Load() != 1 {
		t.Fatal("covered vector re-ran the hook")
	}
	if _, err := n.Fetch(hs.URL, &FillRequest{Key: "k", Kind: "tile"}); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 8 { // a:3 + origin:5
		t.Fatalf("fetch did not gossip the epoch vector: %d", n.Epoch())
	}
	if n.Stats.PeerFills.Load() != 1 || n.Stats.EpochAdoptions.Load() != 2 {
		t.Fatalf("stats = fills %d adoptions %d", n.Stats.PeerFills.Load(), n.Stats.EpochAdoptions.Load())
	}
	n.Bump()
	if got := n.EpochVec()["http://self"]; got != 1 {
		t.Fatalf("Bump advanced own component to %d, want 1", got)
	}
}

// TestNodeEpochConcurrentOrigins is the regression the vector exists
// for: two nodes updating concurrently both reach "1 update", and a
// scalar max-merged epoch would treat the other's 1 as not-newer —
// silently dropping an invalidation. Per-origin components cannot
// collide: each side adopts the other's update exactly once, and a
// concurrent local Bump is never erased by a merge.
func TestNodeEpochConcurrentOrigins(t *testing.T) {
	a, err := New(Options{Self: "http://a", Peers: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Self: "http://b", Peers: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	var aHooks, bHooks atomic.Int64
	a.SetEpochHook(func(EpochVector) { aHooks.Add(1) })
	b.SetEpochHook(func(EpochVector) { bHooks.Add(1) })

	a.Bump() // concurrent updates at both nodes
	b.Bump()
	a.Observe(b.EpochVec()) // gossip crosses
	b.Observe(a.EpochVec())
	if aHooks.Load() != 1 || bHooks.Load() != 1 {
		t.Fatalf("adoptions = a:%d b:%d, want 1/1 — a concurrent update was dropped", aHooks.Load(), bHooks.Load())
	}
	want := EpochVector{"http://a": 1, "http://b": 1}
	for name, n := range map[string]*Node{"a": a, "b": b} {
		got := n.EpochVec()
		if got["http://a"] != want["http://a"] || got["http://b"] != want["http://b"] {
			t.Fatalf("node %s vector = %v, want %v", name, got, want)
		}
	}

	// A local Bump racing a merge survives it: b observes a's OLD
	// vector while b bumps again; b's own component must end at 2.
	var wg sync.WaitGroup
	old := a.EpochVec()
	wg.Add(2)
	go func() { defer wg.Done(); b.Bump() }()
	go func() { defer wg.Done(); b.Observe(old) }()
	wg.Wait()
	if got := b.EpochVec()["http://b"]; got != 2 {
		t.Fatalf("merge erased a concurrent local bump: own component = %d, want 2", got)
	}
}

func TestOptionsEnabled(t *testing.T) {
	cases := []struct {
		o    Options
		want bool
	}{
		{Options{}, false},
		{Options{Self: "a"}, false},
		{Options{Self: "a", Peers: []string{"a"}}, false},
		{Options{Self: "a", Peers: []string{""}}, false},
		{Options{Self: "a", Peers: []string{"a", "b"}}, true},
		{Options{Peers: []string{"a", "b"}}, false},
	}
	for i, c := range cases {
		if c.o.Enabled() != c.want {
			t.Fatalf("case %d: Enabled = %v", i, c.o.Enabled())
		}
	}
	if _, err := New(Options{Self: "a"}); err == nil {
		t.Fatal("New must reject peerless options")
	}
}
