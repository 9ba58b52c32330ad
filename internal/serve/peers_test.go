package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fleet is a set of in-process servers sharing one peer ring, each
// listening on a real TCP port so forwards cross a socket.
type fleet struct {
	servers []*Server
	urls    []string
}

// newFleet boots n servers whose Peers list covers all of them.
// transport(i) supplies server i's peer transport (nil = default).
// start(i) == false leaves slot i dark: its URL is in everyone's ring
// but nothing listens there — the "dead peer" of the fallback tests.
func newFleet(t *testing.T, n int, transport func(i int) http.RoundTripper, start func(i int) bool) *fleet {
	t.Helper()
	lns := make([]net.Listener, n)
	f := &fleet{urls: make([]string, n)}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		f.urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		if start != nil && !start(i) {
			lns[i].Close()
			f.servers = append(f.servers, nil)
			continue
		}
		cfg := Config{Peers: f.urls, Self: f.urls[i]}
		if transport != nil {
			cfg.PeerTransport = transport(i)
		}
		s := New(cfg)
		ts := httptest.NewUnstartedServer(s)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
	}
	return f
}

// peerKeys are distinct sweep bodies (one per kind plus variants) —
// distinct cache keys that spread across the ring.
var peerKeys = []string{
	`{"kind":"delta","deltas":[1.0,1.5]}`,
	`{"kind":"delta","deltas":[2.0]}`,
	`{"kind":"beta","betas":[1.0,1.2]}`,
	`{"kind":"rram_capacity","capacities_mb":[12]}`,
	`{"kind":"tier_pairs","tier_pairs":[1,2],"per_tier_power_w":2.0}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1,2]}`,
}

// referenceBodies evaluates every body on a standalone server — the
// byte-level oracle every fleet response must match.
func referenceBodies(t *testing.T, bodies []string) map[string][]byte {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	ref := make(map[string][]byte, len(bodies))
	for _, body := range bodies {
		status, _, b := post(t, ts.URL+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("reference %s: status %d: %s", body, status, b)
		}
		ref[body] = b
	}
	return ref
}

// sweepEvals sums the local sweep evaluations across the fleet.
func (f *fleet) sweepEvals() int64 {
	var total int64
	for _, s := range f.servers {
		if s != nil {
			total += s.Metrics().Counter("serve.sweep.evals").Value()
		}
	}
	return total
}

// TestPeerShardingSingleFlight fires every key at every node of a
// healthy 2-node fleet concurrently and proves fleet-wide single-flight:
// each key is evaluated exactly once across the whole fleet (the owner's
// cache coalesces its own requests with every forward), and every
// response is byte-identical to the standalone oracle.
func TestPeerShardingSingleFlight(t *testing.T) {
	ref := referenceBodies(t, peerKeys)
	f := newFleet(t, 2, nil, nil)

	var wg sync.WaitGroup
	errs := make(chan string, 4*len(peerKeys))
	for _, body := range peerKeys {
		for _, url := range f.urls {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func(url, body string) {
					defer wg.Done()
					resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
					if err != nil {
						errs <- err.Error()
						return
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("%s: status %d: %s", body, resp.StatusCode, b)
						return
					}
					if !bytes.Equal(b, ref[body]) {
						errs <- fmt.Sprintf("%s: response drifted from the standalone oracle", body)
					}
				}(url, body)
			}
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := f.sweepEvals(); got != int64(len(peerKeys)) {
		t.Errorf("fleet-wide sweep evals = %d, want %d (one per key)", got, len(peerKeys))
	}
	forwarded := f.servers[0].Metrics().Counter("serve.peer.forwarded").Value() +
		f.servers[1].Metrics().Counter("serve.peer.forwarded").Value()
	if forwarded == 0 {
		t.Error("no forwards on a 2-node fleet — the ring is not sharding")
	}
}

// TestPeerDeadFallback points a live node at a ring whose other member
// never listens: every key the dead peer owns must fall back to local
// evaluation, and every response stays byte-identical to the oracle.
func TestPeerDeadFallback(t *testing.T) {
	f := newFleet(t, 2, nil, func(i int) bool { return i == 0 })
	s, url := f.servers[0], f.urls[0]

	// The ring hashes the fleet's ephemeral-port URLs, so key ownership
	// changes from run to run: walk a fixed candidate list until each
	// node owns at least one chosen key.
	var keys []string
	remoteOwned := 0
	for i := 0; i < 256 && (remoteOwned == 0 || remoteOwned == len(keys)); i++ {
		body := fmt.Sprintf(`{"kind":"delta","deltas":[%.3f]}`, 1+float64(i)/256)
		keys = append(keys, body)
		if s.peers.owner(decodeSweepForTest(t, body).key()) != s.peers.self {
			remoteOwned++
		}
	}
	if remoteOwned == 0 || remoteOwned == len(keys) {
		t.Fatalf("ring assigns all %d candidate keys to one node", len(keys))
	}

	ref := referenceBodies(t, keys)
	for _, body := range keys {
		status, _, b := post(t, url+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, status, b)
		}
		if !bytes.Equal(b, ref[body]) {
			t.Errorf("%s: fallback response drifted from the oracle", body)
		}
	}
	if got := s.Metrics().Counter("serve.peer.fallbacks").Value(); got != int64(remoteOwned) {
		t.Errorf("serve.peer.fallbacks = %d, want %d (one per dead-owned key)", got, remoteOwned)
	}
}

// decodeSweepForTest parses a sweep body the way the handler does.
func decodeSweepForTest(t *testing.T, body string) *SweepRequest {
	t.Helper()
	req, err := decodeRequest[SweepRequest](strings.NewReader(body))
	if err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return req
}

// flakyTransport injects seeded, deterministic faults into peer
// forwards: dropped connections, injected 503s, and corrupted bodies
// (truncation and garbage). The seed makes a failing case replayable.
type flakyTransport struct {
	mu   sync.Mutex
	rng  *rand.Rand
	next http.RoundTripper
}

func newFlakyTransport(seed int64) *flakyTransport {
	return &flakyTransport{rng: rand.New(rand.NewSource(seed)), next: http.DefaultTransport}
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	roll := f.rng.Float64()
	f.mu.Unlock()
	switch {
	case roll < 0.20: // dropped connection
		return nil, fmt.Errorf("flaky: injected connection drop")
	case roll < 0.35: // injected shed/unavailable without touching the peer
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(`{"error":"flaky: injected 503"}`)),
			Request:    r,
		}, nil
	case roll < 0.50: // truncated body
		resp, err := f.next.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		return corruptBody(resp, func(b []byte) []byte { return b[:len(b)/2] }), nil
	case roll < 0.60: // garbage body
		resp, err := f.next.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		return corruptBody(resp, func([]byte) []byte { return []byte("}{ not json") }), nil
	default:
		return f.next.RoundTrip(r)
	}
}

// corruptBody replaces a response's body through mutate.
func corruptBody(resp *http.Response, mutate func([]byte) []byte) *http.Response {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b = nil
	}
	b = mutate(b)
	resp.Body = io.NopCloser(bytes.NewReader(b))
	resp.ContentLength = int64(len(b))
	resp.Header.Del("Content-Length")
	return resp
}

// TestPeerFaultInjection is the fault-injection gate: under a seeded
// flaky transport (drops, injected 503s, truncated and garbage bodies),
// every fleet response must still be byte-identical to the standalone
// oracle — an injected corruption must never surface — and per-process
// single-flight must hold: no node evaluates a key more than once, so
// local evaluations per node never exceed the distinct key count.
func TestPeerFaultInjection(t *testing.T) {
	ref := referenceBodies(t, peerKeys)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := newFleet(t, 2,
				func(i int) http.RoundTripper { return newFlakyTransport(seed + int64(i)*100) }, nil)

			var wg sync.WaitGroup
			errCh := make(chan string, 8*len(peerKeys))
			for rep := 0; rep < 4; rep++ {
				for _, body := range peerKeys {
					for _, url := range f.urls {
						wg.Add(1)
						go func(url, body string) {
							defer wg.Done()
							resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
							if err != nil {
								errCh <- err.Error()
								return
							}
							defer resp.Body.Close()
							b, _ := io.ReadAll(resp.Body)
							if resp.StatusCode != http.StatusOK {
								errCh <- fmt.Sprintf("%s: status %d: %s", body, resp.StatusCode, b)
								return
							}
							if !bytes.Equal(b, ref[body]) {
								errCh <- fmt.Sprintf("%s: corrupt or stale response surfaced to a client", body)
							}
						}(url, body)
					}
				}
			}
			wg.Wait()
			close(errCh)
			for e := range errCh {
				t.Error(e)
			}
			for i, s := range f.servers {
				if got := s.Metrics().Counter("serve.sweep.evals").Value(); got > int64(len(peerKeys)) {
					t.Errorf("node %d evaluated %d times for %d keys — single-flight violated",
						i, got, len(peerKeys))
				}
			}
		})
	}
}

// TestPeerAuthoritativeError proves a deterministic rejection from the
// owner (422 thermal violation) is relayed, not retried locally: the
// non-owner answers 422 and records a relayed peer error, not a
// fallback evaluation.
func TestPeerAuthoritativeError(t *testing.T) {
	f := newFleet(t, 2, nil, nil)

	// Find a thermally-violating request owned by node B, submitted to
	// node A (per_tier_power_w variants move the key around the ring).
	for power := 40.0; power < 48.0; power++ {
		body := fmt.Sprintf(`{"kind":"tier_pairs","tier_pairs":[3],"per_tier_power_w":%.1f,"require_thermal":true}`, power)
		req := decodeSweepForTest(t, body)
		var sender *Server
		var senderURL string
		for i, s := range f.servers {
			if s.peers.owner(req.key()) != s.peers.self {
				sender, senderURL = s, f.urls[i]
			}
		}
		if sender == nil {
			continue // both nodes own it (impossible on 2 nodes) — next variant
		}
		status, _, b := post(t, senderURL+"/v1/sweep", body)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("forwarded thermal violation status = %d, want 422: %s", status, b)
		}
		if got := sender.Metrics().Counter("serve.peer.errors").Value(); got != 1 {
			t.Errorf("serve.peer.errors = %d, want 1 (authoritative relay)", got)
		}
		if got := sender.Metrics().Counter("serve.sweep.evals").Value(); got != 0 {
			t.Errorf("non-owner evaluated a relayed rejection locally (%d evals)", got)
		}
		return
	}
	t.Fatal("no candidate key landed on the remote owner")
}

// TestPeerHopNeverLoops proves a request carrying the forwarded-hop
// header is evaluated where it lands, even when the ring says another
// node owns it — the property that makes forwarding loop-free.
func TestPeerHopNeverLoops(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	body := peerKeys[0]
	req := decodeSweepForTest(t, body)
	// Pick the node that does NOT own the key and hand it a pre-hopped
	// request: it must evaluate locally instead of forwarding onward.
	for i, s := range f.servers {
		if s.peers.owner(req.key()) == s.peers.self {
			continue
		}
		hr, err := http.NewRequest(http.MethodPost, f.urls[i]+"/v1/sweep", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set(peerHopHeader, "test")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hopped request status = %d", resp.StatusCode)
		}
		if got := s.Metrics().Counter("serve.peer.forwarded").Value(); got != 0 {
			t.Fatalf("hopped request was re-forwarded (%d forwards)", got)
		}
		if got := s.Metrics().Counter("serve.sweep.evals").Value(); got != 1 {
			t.Fatalf("hopped request local evals = %d, want 1", got)
		}
		return
	}
	t.Fatal("key owned by every node — cannot happen on 2 nodes")
}
