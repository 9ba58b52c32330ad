// Command servesmoke is the check.sh gate for cmd/m3dserve: it builds
// the server binary, boots it on an ephemeral port, replays the
// sweep_default golden over real HTTP, scrapes /metrics, then SIGTERMs
// the process and insists on a clean graceful drain. It exercises the
// same request path the serve package's httptest suite covers, but
// end-to-end through the compiled binary, a TCP socket and POSIX
// signals.
//
// Run from the repo root (check.sh does):
//
//	go run ./scripts/servesmoke
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"m3d/scripts/internal/smoke"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("servesmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("serve smoke ok: healthz + sweep golden + metrics + graceful drain")
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
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

	if err := expectBody(srv.Base+"/healthz", "", `"status":"ok"`); err != nil {
		return err
	}

	// The default sweep must match the serve package's checked-in golden
	// byte for byte — one source of truth for the Fig. 8 grid JSON.
	golden, err := os.ReadFile(filepath.Join("internal", "serve", "testdata", "sweep_default.golden.json"))
	if err != nil {
		return fmt.Errorf("read golden (run from repo root): %w", err)
	}
	body, err := smoke.Fetch(srv.Base+"/v1/sweep", `{"kind":"bandwidth_cs"}`)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, golden) {
		return fmt.Errorf("sweep response drifted from sweep_default.golden.json\ngot:\n%s", body)
	}

	if err := expectBody(srv.Base+"/metrics", "", "serve.requests"); err != nil {
		return err
	}

	// SIGTERM → graceful drain → exit 0 with the drain log lines.
	if err := srv.Stop(); err != nil {
		return err
	}
	if !strings.Contains(srv.Stderr(), "drained") {
		return fmt.Errorf("no drain confirmation in server log:\n%s", srv.Stderr())
	}
	return nil
}

func expectBody(url, body, want string) error {
	b, err := smoke.Fetch(url, body)
	if err != nil {
		return err
	}
	if !strings.Contains(string(b), want) {
		return fmt.Errorf("%s: response missing %q:\n%s", url, want, b)
	}
	return nil
}
