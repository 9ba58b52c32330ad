package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"m3d/internal/obs"
)

// TestLRUEvictsLeastRecentlyUsed walks a bounded cache past its capacity
// and checks the eviction order: the least-recently-used completed entry
// goes first, and a re-computation after eviction counts a fresh miss.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU[int, int](3)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	compute := func(k int) func() (int, error) {
		return func() (int, error) { return k * 10, nil }
	}
	for k := 0; k < 3; k++ {
		if v, _ := c.Do(k, compute(k)); v != k*10 {
			t.Fatalf("Do(%d) = %d", k, v)
		}
	}
	// Touch 0 so 1 becomes the LRU, then insert 3 to force one eviction.
	c.Do(0, compute(0))
	c.Do(3, compute(3))
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := reg.Counter("cache.evictions").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge("cache.entries").Value(); got != 3 {
		t.Fatalf("entries gauge = %d, want 3", got)
	}
	// 1 was evicted: recomputing it must run fn again (a miss); 0 was
	// kept: it must be served memoized (a hit).
	hits, misses := reg.Counter("h"), reg.Counter("m")
	ran := false
	c.DoMetered(1, hits, misses, func() (int, error) { ran = true; return 10, nil })
	if !ran || misses.Value() != 1 {
		t.Fatalf("evicted key not recomputed (ran=%v misses=%d)", ran, misses.Value())
	}
	ran = false
	c.DoMetered(0, hits, misses, func() (int, error) { ran = true; return 0, nil })
	if ran || hits.Value() != 1 {
		t.Fatalf("retained key recomputed (ran=%v hits=%d)", ran, hits.Value())
	}
}

// TestLRUForgetMidFlight forgets a key while its computation runs: the
// orphaned computation must not be re-interned or corrupt the entry
// accounting, and a later Do recomputes.
func TestLRUForgetMidFlight(t *testing.T) {
	c := NewLRU[int, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := c.Do(7, func() (int, error) {
			close(started)
			<-release
			return 70, nil
		})
		done <- v
	}()
	<-started
	c.Forget(7)
	if got := c.Len(); got != 0 {
		t.Fatalf("Len = %d after mid-flight Forget, want 0", got)
	}
	close(release)
	if v := <-done; v != 70 {
		t.Fatalf("orphaned caller got %d, want 70", v)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("orphaned completion re-interned: Len=%d", got)
	}
	ran := false
	c.Do(7, func() (int, error) { ran = true; return 71, nil })
	if !ran {
		t.Fatal("forgotten key not recomputed")
	}
}

// TestLRUSingleFlightUnderEviction is the width-8 hammer of the PR's
// concurrency contract: DoMetered + eviction pressure from a pool of
// 8 workers over a key space 4× the capacity, proving (a) single-flight —
// at no instant do two computations of the same live key run (eviction
// never removes an in-flight entry), and (b) Len() ≤ cap at every
// observation point (the capacity exceeds the pool width, so in-flight
// provisional entries always fit the budget).
func TestLRUSingleFlightUnderEviction(t *testing.T) {
	const (
		capacity = 16
		workers  = 8
		keys     = 64
		ops      = 4000
	)
	c := NewLRU[int, int](capacity)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	var inflight [keys]atomic.Int32
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				v, err := c.Do(k, func() (int, error) {
					if n := inflight[k].Add(1); n != 1 {
						errCh <- fmt.Errorf("key %d: %d concurrent evaluations", k, n)
					}
					defer inflight[k].Add(-1)
					return k * 3, nil
				})
				if err != nil || v != k*3 {
					errCh <- fmt.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
				if n := c.Len(); n > capacity {
					errCh <- fmt.Errorf("Len() = %d > cap %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if ev := reg.Counter("cache.evictions").Value(); ev == 0 {
		t.Fatal("hammer produced no evictions; the test exercised nothing")
	}
	if got := reg.Gauge("cache.entries").Value(); got != int64(c.Len()) {
		t.Fatalf("entries gauge %d != Len %d", reg.Gauge("cache.entries").Value(), c.Len())
	}
}

// TestLRUHammerWithForget mixes Forget into the width-8 hammer and checks
// the bookkeeping invariants hold at every observation point: Len() ≤ cap
// and the instrumented entries gauge lands exactly on the final Len.
func TestLRUHammerWithForget(t *testing.T) {
	const (
		capacity = 16
		workers  = 8
		keys     = 48
		ops      = 4000
	)
	c := NewLRU[int, int](capacity)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				switch rng.Intn(10) {
				case 0:
					c.Forget(k)
				default:
					if v, err := c.Do(k, func() (int, error) { return k, nil }); err != nil || v != k {
						errCh <- fmt.Errorf("Do(%d) = %d, %v", k, v, err)
						return
					}
				}
				if n := c.Len(); n > capacity {
					errCh <- fmt.Errorf("Len() = %d > cap %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got, want := reg.Gauge("cache.entries").Value(), int64(c.Len()); got != want {
		t.Fatalf("entries gauge %d != Len %d", got, want)
	}
}
