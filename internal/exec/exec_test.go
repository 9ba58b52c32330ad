package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderDeterministic(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	square := func(_ context.Context, _ int, v int) (int, error) { return v * v, nil }

	want, err := Map(items, square, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8, 64} {
		for rep := 0; rep < 3; rep++ {
			got, err := Map(items, square, WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d rep %d: results differ from serial", w, rep)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(nil, func(context.Context, int, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: got %v, %v", out, err)
	}
}

func TestMapFirstError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, w := range []int{1, 2, 8} {
		_, err := Map(items, func(_ context.Context, _ int, v int) (int, error) {
			if v >= 3 {
				return 0, fmt.Errorf("item %d failed", v)
			}
			return v, nil
		}, WithWorkers(w))
		if err == nil {
			t.Fatalf("width %d: expected error", w)
		}
	}
	// Serial path must report the lowest failing index.
	_, err := Map(items, func(_ context.Context, _ int, v int) (int, error) {
		if v >= 3 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	}, WithWorkers(1))
	if got := err.Error(); got != "item 3 failed" {
		t.Fatalf("serial first error: got %q", got)
	}
}

func TestMapErrorStopsDispatch(t *testing.T) {
	var calls atomic.Int64
	items := make([]int, 10000)
	boom := errors.New("boom")
	_, err := Map(items, func(_ context.Context, idx int, _ int) (int, error) {
		calls.Add(1)
		if idx == 0 {
			return 0, boom
		}
		time.Sleep(time.Microsecond)
		return 0, nil
	}, WithWorkers(4))
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if c := calls.Load(); c == int64(len(items)) {
		t.Fatalf("error did not stop dispatch: all %d items ran", c)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	items := make([]int, 1000)
	_, err := Map(items, func(ctx context.Context, _ int, _ int) (int, error) {
		if started.Add(1) == 8 {
			cancel()
		}
		<-ctx.Done()
		return 0, nil
	}, WithWorkers(8), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Pre-cancelled context: nothing runs.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	var ran atomic.Int64
	_, err = Map(items, func(context.Context, int, int) (int, error) {
		ran.Add(1)
		return 0, nil
	}, WithWorkers(1), WithContext(ctx2))
	if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("pre-cancelled: err=%v ran=%d", err, ran.Load())
	}
}

func TestMapWorkerBound(t *testing.T) {
	const width = 3
	var cur, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(items, func(_ context.Context, _ int, _ int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return 0, nil
	}, WithWorkers(width))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > width {
		t.Fatalf("pool exceeded width: peak %d > %d", p, width)
	}
}

func TestGridRowMajor(t *testing.T) {
	as := []int{1, 2, 3}
	bs := []string{"x", "y"}
	got, err := GridWith(Resolve(WithWorkers(4)), as, bs, func(_ context.Context, a int, b string) (string, error) {
		return fmt.Sprintf("%d%s", a, b), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1x", "1y", "2x", "2y", "3x", "3y"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grid order: got %v want %v", got, want)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	var c Cache[int, int]
	var computes atomic.Int64
	var wg sync.WaitGroup
	const callers = 32
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(7, func() (int, error) {
				computes.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len after reset %d", c.Len())
	}
}

func TestCacheMemoizesError(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.Do("k", func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("got %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed compute retried: %d calls", calls)
	}
}

func TestDefaultWorkersEnvOverride(t *testing.T) {
	t.Setenv(WorkersEnv, "5")
	if got := DefaultWorkers(); got != 5 {
		t.Fatalf("env override: got %d", got)
	}
	t.Setenv(WorkersEnv, "bogus")
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("bogus env: got %d", got)
	}
	t.Setenv(WorkersEnv, "-3")
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("negative env: got %d", got)
	}
}
