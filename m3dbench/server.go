package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one m3dserve process on a loopback ephemeral port, started
// at the default pool width with its output in its own directory.
type server struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	pid    string
	trace  string // -trace file; "" when untraced
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// buildServer builds cmd/m3dserve from the tree under test, once per
// invocation.
func (e *env) buildServer() (string, error) {
	if e.server != "" {
		return e.server, nil
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "m3dserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/m3dserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building m3dserve: %w", err)
	}
	e.server = bin
	return bin, nil
}

// bootTimeout bounds the wait for a fresh server to answer /healthz.
const bootTimeout = 60 * time.Second

// startServer boots a fresh server and waits until it answers /healthz.
func startServer(e *env, traced bool) (*server, error) {
	bin, err := e.buildServer()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "server-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, exited: make(chan struct{})}
	args := []string{"-addr", "127.0.0.1:0"}
	if traced {
		s.trace = filepath.Join(dir, "trace.jsonl")
		args = append(args, "-trace", s.trace)
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = stdout, stderr
	// Backstop: the server dies with the harness even if the harness is
	// killed before it can stop it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting m3dserve: %w", err)
	}
	s.pid = strconv.Itoa(s.cmd.Process.Pid)
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()

	// The server announces its address on its first stdout line.
	deadline := time.Now().Add(bootTimeout)
	for s.base == "" {
		if b, _ := os.ReadFile(stdout.Name()); strings.Contains(string(b), "\n") {
			line, _, _ := strings.Cut(string(b), "\n")
			addr, ok := strings.CutPrefix(line, "listening on ")
			if !ok {
				s.stop()
				return nil, fmt.Errorf("m3dserve printed %q, want \"listening on <addr>\"", line)
			}
			s.base = "http://" + addr
			break
		}
		if err := s.waitTick(deadline); err != nil {
			return nil, err
		}
	}
	c := newConn()
	for {
		if resp, err := c.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if err := s.waitTick(deadline); err != nil {
			return nil, err
		}
	}
}

// waitTick sleeps one polling interval during boot, failing once the
// server has exited or the deadline has passed.
func (s *server) waitTick(deadline time.Time) error {
	select {
	case <-s.exited:
		return fmt.Errorf("m3dserve exited during boot (%v): %s", s.err, s.stderrTail())
	case <-time.After(2 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		s.stop()
		return fmt.Errorf("m3dserve not healthy within %s: %s", bootTimeout, s.stderrTail())
	}
	return nil
}

func (s *server) stderrTail() string {
	b, _ := os.ReadFile(filepath.Join(s.dir, "stderr"))
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// drainTimeout bounds the graceful drain after SIGTERM.
const drainTimeout = 30 * time.Second

// stop drains the server with SIGTERM and waits for it to exit, killing
// it after drainTimeout. It is safe to call more than once.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return nil
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(drainTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("m3dserve did not drain within %s", drainTimeout)
	}
	if s.err != nil {
		return fmt.Errorf("m3dserve: %v: %s", s.err, s.stderrTail())
	}
	return nil
}

// scrape reads GET /metrics.
func (s *server) scrape() (metricsText, error) {
	resp, err := newConn().Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// spans folds the server's trace; call it after stop, once the server
// has written its last span.
func (s *server) spans() (*fold, error) {
	f, err := os.Open(s.trace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, err := readJSONL(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return newFold(spans), nil
}

// setUp boots and primes a server setups times, stopping all but the
// last, and returns it with each set-up's time from boot to primed.
func setUp(e *env, traced bool, setups int, warm func(*server) error) (*server, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startServer(e, traced)
		if err != nil {
			return nil, nil, err
		}
		if err := warm(s); err != nil {
			s.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i >= setups-1 {
			return s, times, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}
