// Command m3dserve serves the m3d evaluation library over HTTP: the
// Sec. III analytical sweeps (POST /v1/sweep), the RTL-to-GDS flow
// (POST /v1/flow), heterogeneous sweep/flow batches (POST /v1/batch),
// the adaptive Pareto design-space explorer (POST /v1/dse), Monte-Carlo
// timing yield over a built design (POST /v1/yield), async jobs
// (/v1/jobs), a liveness probe (GET /healthz), and the metrics registry
// (GET /metrics). See DESIGN.md §9 for the request pipeline
// (admission → coalesce → pool → response) and README for curl examples.
//
// Batches run under one admission slot and stream back as a chunked JSON
// array with per-item status isolation (DESIGN.md §10); /v1/dse and
// /v1/yield stream their results the same way.
//
// The server sheds load with 429 once the admission queue is full,
// applies a per-request deadline, bounds its coalescing caches with
// -cachecap (LRU eviction keeps memory flat under varied traffic; 0, the
// default, leaves them unbounded), and drains gracefully on
// SIGINT/SIGTERM: in-flight requests complete (up to -drain), new
// requests are refused with 503, then the listener closes.
//
// Async jobs (POST /v1/jobs, DESIGN.md §14) run behind their own
// -jobs/-jobqueue admission gate; each evaluates once, and its record
// (with the result) and flow artifacts persist through -jobstore. A
// restarted m3dserve pointed at the same store serves finished jobs and
// re-runs unfinished ones. During the drain, running jobs are
// interrupted and parked as queued in the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"m3d/internal/cliutil"
	"m3d/internal/exec"
	"m3d/internal/serve"
	"m3d/internal/tech"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("m3dserve: ")
	addr := flag.String("addr", "localhost:8080", "listen address (host:0 picks an ephemeral port)")
	workers := flag.Int("workers", 0, "evaluation pool width (0 = GOMAXPROCS / M3D_WORKERS)")
	inflight := flag.Int("inflight", 64, "max concurrently admitted requests")
	queue := flag.Int("queue", 0, "max requests waiting for admission (0 = same as -inflight, negative = none)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request evaluation deadline (negative = none)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	cachecap := flag.Int("cachecap", 0, "memoized responses kept per coalescing cache, LRU-evicted beyond (0 or negative = unbounded)")
	jobstore := flag.String("jobstore", "", "directory persisting async jobs and their artifacts (empty = in-memory, no resume across restarts)")
	jobs := flag.Int("jobs", 0, "max concurrently running async jobs (0 = 2)")
	jobqueue := flag.Int("jobqueue", 0, "max async jobs queued behind the running ones (0 = 16, negative = none)")
	obsFlags := cliutil.Register()
	flag.Parse()

	obsOpts := obsFlags.Setup()
	defer obsFlags.Close()
	// The server always carries a registry (GET /metrics); share the
	// -trace/-metrics one when present so both views agree.
	st := exec.Resolve(obsOpts...)
	reg := obsFlags.Registry()

	var store serve.JobStore
	if *jobstore != "" {
		ds, err := serve.NewDirJobStore(*jobstore)
		if err != nil {
			log.Fatal(err)
		}
		store = ds
	}

	srv := serve.New(serve.Config{
		PDK:            tech.Default130(),
		Workers:        *workers,
		MaxInFlight:    *inflight,
		MaxQueue:       *queue,
		RequestTimeout: *timeout,
		CacheCap:       *cachecap,
		Tracer:         st.Tracer,
		Metrics:        reg,
		JobStore:       store,
		MaxJobs:        *jobs,
		MaxJobQueue:    *jobqueue,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Announce the bound address on stdout: scripts (the serve-smoke
	// check) parse this line to find an ephemeral port.
	fmt.Printf("listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining (deadline %s)...", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("drained")
}
