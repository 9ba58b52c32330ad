// Command yieldsmoke is the check.sh gate for POST /v1/yield: it
// builds cmd/m3dserve, boots it on an ephemeral port, streams one
// pinned Monte-Carlo timing-yield run over real HTTP, and checks the
// refinement invariants end to end through the compiled binary — a
// well-formed chunked JSON array whose non-final elements carry
// strictly increasing sample counts, an ordered p5 ≤ p50 ≤ p95
// critical-path band in every element, a yield curve monotone
// non-decreasing in clock period, and a single done=true element last
// that repeats the converged sample total. Then SIGTERMs the server
// and insists on a clean drain.
//
// In its default mode (96 corners, batch 32) the request is the serve
// suite's pinned stream, and the body must also equal
// internal/serve/testdata/yield_stream.golden.json byte for byte, the
// way servesmoke replays sweep_default.golden.json: the compiled server
// must reproduce the absolute corner stream, not only a well-formed one.
//
// Run from the repo root (check.sh does):
//
//	go run ./scripts/yieldsmoke
//	go run ./scripts/yieldsmoke -samples 4096 -batch 1024 -budget 60s
//
// The second form is the large-batch mode: it streams a 4096-corner run
// and asserts the whole request stays inside the -budget wall clock —
// the end-to-end check that Monte-Carlo yield goes through the
// corner-batched STA kernel rather than one full timing walk per
// corner.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"m3d/internal/vary"
	"m3d/scripts/internal/smoke"
)

// goldenSamples and goldenBatch are the run shape of the serve suite's
// pinned stream, whose reply is checked in as goldenPath.
const (
	goldenSamples = 96
	goldenBatch   = 32
	goldenPath    = "internal/serve/testdata/yield_stream.golden.json"
)

// yieldBody mirrors the serve suite's pinned stream request: a small
// M3D design timed under samples corners refined in batches of batch
// (the defaults give three refinement elements plus the final done
// element).
func yieldBody(samples, batch int) string {
	return fmt.Sprintf(`{"flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1},"samples":%d,"batch":%d,"seed":7}`,
		samples, batch)
}

// update is the wire shape of one stream element (serve.YieldUpdate).
type update struct {
	Samples          int               `json:"samples"`
	NominalCritPathS float64           `json:"nominal_crit_path_s"`
	NominalFmaxHz    float64           `json:"nominal_fmax_hz"`
	Curve            []vary.YieldPoint `json:"curve"`
	CritQuantiles    vary.Quantiles    `json:"crit_quantiles"`
	Done             bool              `json:"done"`
	Error            string            `json:"error"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("yieldsmoke: ")
	samples := flag.Int("samples", goldenSamples, "Monte-Carlo corners to stream")
	batch := flag.Int("batch", goldenBatch, "per-update refinement batch (the defaults replay the checked-in golden stream)")
	budget := flag.Duration("budget", 0, "fail when the yield request exceeds this wall clock (0 = no gate)")
	flag.Parse()
	if *samples < 1 || *batch < 1 || *batch > *samples || *samples%*batch != 0 {
		log.Fatalf("-samples %d / -batch %d: want batch to divide samples", *samples, *batch)
	}
	if err := run(*samples, *batch, *budget); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("yield smoke ok: %d corners streamed, refinement monotone, bands ordered, curve monotone + graceful drain\n", *samples)
}

func run(samples, batch int, budget time.Duration) error {
	tmp, err := os.MkdirTemp("", "yieldsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin, err := smoke.Build(tmp)
	if err != nil {
		return err
	}
	srv, err := smoke.Start(bin, "-drain", "10s")
	if err != nil {
		return err
	}
	defer srv.Reap()

	t0 := time.Now()
	resp, err := http.Post(srv.Base+"/v1/yield", "application/json",
		strings.NewReader(yieldBody(samples, batch)))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(t0)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/yield: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		return fmt.Errorf("/v1/yield: Content-Type %q, want application/json", ct)
	}
	if err := checkStream(body, samples, batch); err != nil {
		return fmt.Errorf("/v1/yield stream: %w\nbody:\n%s", err, body)
	}
	if samples == goldenSamples && batch == goldenBatch {
		golden, err := os.ReadFile(filepath.FromSlash(goldenPath))
		if err != nil {
			return fmt.Errorf("read golden (run from repo root): %w", err)
		}
		if !bytes.Equal(body, golden) {
			return fmt.Errorf("/v1/yield stream drifted from %s\ngot:\n%s", goldenPath, body)
		}
		log.Printf("stream matches %s", goldenPath)
	}
	// The wall-clock budget covers the whole request — flow build,
	// samples/batch batched-STA refinements, streaming — so a kernel
	// regression (e.g. falling back to one timing walk per corner)
	// fails here even while the stream stays well-formed.
	if budget > 0 && elapsed > budget {
		return fmt.Errorf("%d-corner yield run took %s, over the -budget gate %s", samples, elapsed.Round(time.Millisecond), budget)
	}
	log.Printf("%d corners in %s", samples, elapsed.Round(time.Millisecond))

	// SIGTERM → graceful drain → exit 0.
	return srv.Stop()
}

// checkStream enforces the /v1/yield refinement invariants on the
// full body.
func checkStream(body []byte, samples, batch int) error {
	var updates []update
	if err := json.Unmarshal(body, &updates); err != nil {
		return fmt.Errorf("not a JSON array: %w", err)
	}
	// samples/batch refinement elements + the done element.
	want := samples/batch + 1
	if len(updates) != want {
		return fmt.Errorf("got %d elements, want %d", len(updates), want)
	}
	prev := 0
	for i, u := range updates {
		if u.Error != "" {
			return fmt.Errorf("element %d carries an in-band error: %s", i, u.Error)
		}
		if u.Done != (i == len(updates)-1) {
			return fmt.Errorf("element %d: done flag misplaced", i)
		}
		if u.Done {
			if u.Samples != prev {
				return fmt.Errorf("done element samples %d != final refinement %d", u.Samples, prev)
			}
		} else {
			if u.Samples <= prev {
				return fmt.Errorf("element %d: samples %d not increasing past %d", i, u.Samples, prev)
			}
			prev = u.Samples
		}
		if u.NominalCritPathS <= 0 || u.NominalFmaxHz <= 0 {
			return fmt.Errorf("element %d: nominal timing missing", i)
		}
		q := u.CritQuantiles
		if !(q.P5 <= q.P50 && q.P50 <= q.P95) {
			return fmt.Errorf("element %d: quantile band out of order: %+v", i, q)
		}
		if len(u.Curve) == 0 {
			return fmt.Errorf("element %d: empty yield curve", i)
		}
		for j := 1; j < len(u.Curve); j++ {
			if u.Curve[j].PeriodS <= u.Curve[j-1].PeriodS {
				return fmt.Errorf("element %d: curve periods not increasing at %d", i, j)
			}
			if u.Curve[j].Yield < u.Curve[j-1].Yield {
				return fmt.Errorf("element %d: yield fell with a longer period at %d", i, j)
			}
		}
	}
	if final := updates[len(updates)-1]; final.Samples != samples {
		return fmt.Errorf("final samples %d, want %d", final.Samples, samples)
	}
	return nil
}
