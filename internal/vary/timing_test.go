package vary

import (
	"reflect"
	"sync"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/exec"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

// TestTimingFreeListBounded fires many concurrent CriticalPathsInto calls at
// pool width w through two engines bound to one Timing, then requires
// the Timing's free list to hold at most w scratches: a retained design
// keeps no more slab scratch than one call at its width uses, however
// many calls overlapped. Every call must still match its engine's
// serial result, whichever scratch it drew.
func TestTimingFreeListBounded(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	b := synth.NewBuilder("pipe", lib)
	b.SinkBus("capture", b.Register("launch", synth.Bus{b.Input("in", 0.2)}, 0.2))
	if err := b.NL.Check(); err != nil {
		t.Fatal(err)
	}
	const calls, samples = 16, 8 * batchCorners
	for _, w := range []int{1, 2, 8} {
		tm, err := Compile(p, b.NL, nil)
		if err != nil {
			t.Fatal(err)
		}
		var engines [2]*Engine
		var want [2][]float64
		for i := range engines {
			if engines[i], err = tm.Engine(tech.DefaultVariation(), int64(i+1)); err != nil {
				t.Fatal(err)
			}
			want[i] = make([]float64, samples)
			if err := engines[i].CriticalPathsInto(exec.Resolve(exec.WithWorkers(1)), 0, samples, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < calls; c++ {
			wg.Add(1)
			go func(e *Engine, want []float64) {
				defer wg.Done()
				got := make([]float64, samples)
				if err := e.CriticalPathsInto(exec.Resolve(exec.WithWorkers(w)), 0, samples, got); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("width %d: concurrent call differs from the serial result", w)
				}
			}(engines[c%2], want[c%2])
		}
		wg.Wait()
		tm.mu.Lock()
		n := len(tm.free)
		tm.mu.Unlock()
		if n < 1 || n > w {
			t.Errorf("width %d: free list holds %d scratches after %d concurrent calls, want 1..%d", w, n, calls, w)
		}
	}
}
