package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// firstBodies are the sweep bodies the default -distinct 4 has always
// cycled; they stay byte-identical so the default mix keeps measuring
// the same cache keys.
var firstBodies = []string{
	`{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1,2]}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2,4],"bw_scales":[1,2,4]}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2,4,8],"bw_scales":[1,2,4,8]}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2,4,8,16],"bw_scales":[1,2,4,8,16]}`,
}

// TestBuildMixDistinct requires -distinct N to yield N sweep items with
// N different bodies, the first four of them unchanged, and N below 1 to
// fail, as -c below 1 does, instead of silently becoming 1.
func TestBuildMixDistinct(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			items, err := buildMix("sweep=3", n)
			if n < 1 {
				if err == nil {
					t.Fatalf("buildMix(-distinct %d) succeeded, want an error", n)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != n {
				t.Fatalf("%d items, want %d", len(items), n)
			}
			seen := make(map[string]int, n)
			for i, it := range items {
				if it.path != "/v1/sweep" || it.weight != 3 {
					t.Errorf("item %d = %s weight %d, want /v1/sweep weight 3", i, it.path, it.weight)
				}
				if j, dup := seen[it.body]; dup {
					t.Errorf("bodies %d and %d are both %s", j, i, it.body)
				}
				seen[it.body] = i
				if i < len(firstBodies) && it.body != firstBodies[i] {
					t.Errorf("body %d = %s, want %s", i, it.body, firstBodies[i])
				}
			}
		})
	}
}

// TestCPUModel reads the first model name of a cpuinfo text and falls
// back to "unknown" without one.
func TestCPUModel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"processor\t: 0\nmodel name\t: AMD EPYC\nprocessor\t: 1\nmodel name\t: other\n", "AMD EPYC"},
		{"processor\t: 0\nFeatures\t: fp asimd\n", "unknown"},
		{"", "unknown"},
	} {
		if got := cpuModel(tc.in); got != tc.want {
			t.Errorf("cpuModel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// refusingServer answers refusal to all but every n-th request, at
// once; n = 1 serves every request.
func refusingServer(t *testing.T, refusal int, n int64) *httptest.Server {
	t.Helper()
	var count atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if count.Add(1)%n != 0 {
			w.WriteHeader(refusal)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// runHealth drives ts with the health mix for 300 ms on two workers.
func runHealth(t *testing.T, ts *httptest.Server) *result {
	t.Helper()
	items, err := buildMix("health=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	return run(ts.Client(), ts.URL, items, 2, 300*time.Millisecond, 1)
}

// TestShedIsNotThroughput runs the closed loop against a server that
// answers 429 to nine of every ten requests: requests must count every
// attempt, rps must count only the served ones (rps × seconds = ok), and
// a -minrps gate set at half the attempt rate must fail, as it would not
// if shed requests counted as throughput. A -deadline of 1 s must fail
// too, however fast the few served requests were: a shed request misses
// any latency limit.
func TestShedIsNotThroughput(t *testing.T) {
	res := runHealth(t, refusingServer(t, http.StatusTooManyRequests, 10))
	if res.OK == 0 || res.Shed == 0 || res.Errors != 0 || res.Requests != res.OK+res.Shed {
		t.Fatalf("requests %d, ok %d, shed %d, errors %d: want ok and shed requests, no errors, all counted",
			res.Requests, res.OK, res.Shed, res.Errors)
	}
	if got := res.RPS * res.Seconds; math.Abs(got-float64(res.OK)) > 1e-6*float64(res.OK) {
		t.Errorf("rps %.1f × %.3f s = %.1f, want ok = %d", res.RPS, res.Seconds, got, res.OK)
	}
	attempts := float64(res.Requests) / res.Seconds
	if f := res.gates(attempts/2, 0, 0); len(f) != 1 {
		t.Errorf("-minrps %.0f (half the attempt rate) with %d of %d requests shed: gates = %q, want one failure",
			attempts/2, res.Shed, res.Requests, f)
	}
	if f := res.gates(res.RPS/2, 0, 0); len(f) != 0 {
		t.Errorf("-minrps %.0f (half the ok rate): gates = %q, want none", res.RPS/2, f)
	}
	if f := res.gates(0, time.Second, 0); len(f) != 1 {
		t.Errorf("-deadline 1s with %d of %d requests shed (ok p99 %.2f ms): gates = %q, want one failure",
			res.Shed, res.Requests, res.P99Ms, f)
	}
}

// TestDeadlinePassesServedRun: against a server that answers every
// request at once, -deadline 1s holds.
func TestDeadlinePassesServedRun(t *testing.T) {
	res := runHealth(t, refusingServer(t, http.StatusTooManyRequests, 1))
	if res.OK == 0 || res.OK != res.Requests {
		t.Fatalf("requests %d, ok %d: want every request served", res.Requests, res.OK)
	}
	if f := res.gates(0, time.Second, 0); len(f) != 0 {
		t.Errorf("-deadline 1s with every request served (p99 %.2f ms): gates = %q, want none", res.P99Ms, f)
	}
}

// TestUnavailableIsHardError: a 503 (a draining server) is a hard error,
// not backpressure, so it spends the error budget.
func TestUnavailableIsHardError(t *testing.T) {
	res := runHealth(t, refusingServer(t, http.StatusServiceUnavailable, 2))
	if res.Errors == 0 || res.Shed != 0 || res.Requests != res.OK+res.Errors {
		t.Fatalf("requests %d, ok %d, shed %d, errors %d: want every 503 counted as an error",
			res.Requests, res.OK, res.Shed, res.Errors)
	}
	if f := res.gates(0, 0, 0); len(f) != 1 {
		t.Errorf("-errbudget 0 with %d errors: gates = %q, want one failure", res.Errors, f)
	}
}
