// Package smoke is the harness the m3dserve smoke commands share
// (scripts/servesmoke, dsesmoke, jobsmoke, yieldsmoke): build the server
// binary, boot it on an ephemeral port, read its listen address, and stop
// it with SIGTERM, requiring a clean graceful drain. Each command keeps
// its own request checks; only the process plumbing lives here.
package smoke

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const (
	startDeadline = 30 * time.Second
	drainDeadline = 20 * time.Second
)

// Build compiles cmd/m3dserve into dir and returns the binary's path.
// Smokes run a real binary rather than `go run`: signals must reach the
// server process itself, not a go-run parent. Run from the repo root.
func Build(dir string) (string, error) {
	bin := filepath.Join(dir, "m3dserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/m3dserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("build m3dserve: %w", err)
	}
	return bin, nil
}

// Server is one booted m3dserve process.
type Server struct {
	// Base is the server's URL root, "http://<addr>".
	Base string

	cmd     *exec.Cmd
	stderr  bytes.Buffer
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // cmd.Wait's result, set before exited closes
}

// Start boots bin on an ephemeral localhost port with the extra args and
// waits for its "listening on <addr>" banner. Past a successful Start
// the server is live: defer Reap so every early return still stops it.
func Start(bin string, args ...string) (*Server, error) {
	s := &Server{cmd: exec.Command(bin, append([]string{"-addr", "localhost:0"}, args...)...)}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := listenAddr(stdout)
	if err != nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		return nil, err
	}
	s.Base = "http://" + addr
	s.exited = make(chan struct{})
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// Reap kills the server if it has not exited yet and waits for it.
func (s *Server) Reap() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// Stop sends SIGTERM and requires the server to exit cleanly within the
// drain deadline.
func (s *Server) Stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("server exit after SIGTERM: %w\nstderr:\n%s", s.waitErr, s.stderr.Bytes())
		}
		return nil
	case <-time.After(drainDeadline):
		s.Reap()
		return fmt.Errorf("server did not drain within %s\nstderr:\n%s", drainDeadline, s.stderr.Bytes())
	}
}

// Stderr returns the server's log. Read it only after the server exited.
func (s *Server) Stderr() string { return s.stderr.String() }

// listenAddr reads the server's "listening on <addr>" banner.
func listenAddr(stdout io.Reader) (string, error) {
	type line struct {
		text string
		err  error
	}
	ch := make(chan line, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			ch <- line{text: sc.Text()}
			// Keep draining so the server never blocks on a full pipe.
			for sc.Scan() {
			}
			return
		}
		ch <- line{err: fmt.Errorf("server stdout closed before banner: %v", sc.Err())}
	}()
	select {
	case l := <-ch:
		if l.err != nil {
			return "", l.err
		}
		addr, ok := strings.CutPrefix(l.text, "listening on ")
		if !ok {
			return "", fmt.Errorf("unexpected banner %q", l.text)
		}
		return addr, nil
	case <-time.After(startDeadline):
		return "", fmt.Errorf("server did not announce a listen address within %s", startDeadline)
	}
}

// Fetch GETs url (empty body) or POSTs body as JSON, requiring 200.
func Fetch(url, body string) ([]byte, error) {
	var (
		resp *http.Response
		err  error
	)
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return b, nil
}
