// Command dsesmoke is the check.sh gate for POST /v1/dse: it builds
// cmd/m3dserve, boots it on an ephemeral port, streams one small
// adaptive Pareto exploration over real HTTP, and checks the stream
// invariants end to end through the compiled binary — a well-formed
// chunked JSON array with at least two round snapshots, a monotone
// non-decreasing evaluation counter, every frontier mutually
// non-dominated and growing only by non-dominated refinement (a point
// present in round r is never strictly dominated by round r+1's set
// without being replaced), and a final done=true element carrying the
// grid totals. Then SIGTERMs the server and insists on a clean drain.
//
// Run from the repo root (check.sh does):
//
//	go run ./scripts/dsesmoke
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"m3d/internal/dse"
	"m3d/scripts/internal/smoke"
)

// dseBody mirrors the serve suite's pinned golden request: a small box
// explored to convergence with a pinned seed, a handful of rounds.
const dseBody = `{"deltas":{"min":1,"max":2.5,"steps":8},"tier_pairs":{"min":1,"max":3},"bw_scales":{"min":1,"max":4,"steps":4},"seed":7,"max_evals":96}`

// update is the wire shape of one stream element (serve.DSEUpdate
// flattens dse.Update the same way).
type update struct {
	dse.Update
	Error string `json:"error"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsesmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dse smoke ok: streamed frontier monotone, non-dominated, converged + graceful drain")
}

func run() error {
	tmp, err := os.MkdirTemp("", "dsesmoke")
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

	resp, err := http.Post(srv.Base+"/v1/dse", "application/json", strings.NewReader(dseBody))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/dse: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		return fmt.Errorf("/v1/dse: Content-Type %q, want application/json", ct)
	}
	if err := checkStream(body); err != nil {
		return fmt.Errorf("/v1/dse stream: %w\nbody:\n%s", err, body)
	}

	// SIGTERM → graceful drain → exit 0.
	return srv.Stop()
}

// checkStream enforces the /v1/dse reply invariants on the full body.
func checkStream(body []byte) error {
	var updates []update
	if err := json.Unmarshal(body, &updates); err != nil {
		return fmt.Errorf("not a JSON array: %w", err)
	}
	if len(updates) < 2 {
		return fmt.Errorf("only %d elements, want at least one round plus the final", len(updates))
	}
	prevEvals := 0
	var prev []dse.Point
	for i, u := range updates {
		if u.Error != "" {
			return fmt.Errorf("element %d carries an in-band error: %s", i, u.Error)
		}
		if u.Evaluations < prevEvals {
			return fmt.Errorf("element %d: evaluations fell %d -> %d", i, prevEvals, u.Evaluations)
		}
		prevEvals = u.Evaluations
		for _, p := range u.Frontier {
			for _, q := range u.Frontier {
				if p != q && p.Dominates(q) {
					return fmt.Errorf("element %d: frontier not mutually non-dominated", i)
				}
			}
		}
		// Monotone non-dominated growth: refinement may replace a point
		// only with one at least as good on every objective.
		ar := &dse.Archive{}
		for _, q := range u.Frontier {
			ar.Add(q)
		}
		if missing, ok := ar.Uncovered(prev); !ok {
			return fmt.Errorf("element %d dropped frontier point δ=%.2f Y=%d bw=%.1f without dominating it",
				i, missing.Delta, missing.TierPairs, missing.BWScale)
		}
		prev = u.Frontier
		if u.Done != (i == len(updates)-1) {
			return fmt.Errorf("element %d: done flag misplaced", i)
		}
	}
	final := updates[len(updates)-1]
	if final.GridSize != 8*3*4 {
		return fmt.Errorf("final grid_size %d, want %d", final.GridSize, 8*3*4)
	}
	if len(final.Frontier) == 0 {
		return fmt.Errorf("final frontier is empty")
	}
	return nil
}
