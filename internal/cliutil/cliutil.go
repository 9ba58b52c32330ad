// Package cliutil wires the shared observability flags — -trace (JSON
// lines span trace), -metrics (aggregate snapshot on stderr), -pprof
// (net/http/pprof endpoint) — into the m3d command-line tools, so every
// binary exposes the same surface.
package cliutil

import (
	"bufio"
	"flag"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"

	"m3d/internal/exec"
	"m3d/internal/obs"
)

// ObsFlags holds the shared observability flag values. Build with
// Register before flag.Parse, then call Setup once after.
type ObsFlags struct {
	TracePath string
	Metrics   bool
	PprofAddr string

	trace *obs.JSONL
	reg   *obs.Registry
	file  *os.File
	buf   *bufio.Writer
}

// Register declares -trace, -metrics and -pprof on the default FlagSet.
func Register() *ObsFlags {
	return RegisterOn(flag.CommandLine)
}

// RegisterOn declares the shared observability flags on fs — the entry
// point for binaries with subcommand FlagSets.
func RegisterOn(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.StringVar(&f.TracePath, "trace", "", "write a JSON-lines span trace to this file (\"-\" = stderr)")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the aggregate metrics snapshot to stderr at exit (JSON)")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return f
}

// Setup opens the configured sinks and returns the run options to pass to
// every library call. Call Close before exiting. With no flags set it
// returns no options (observability fully disabled).
func (f *ObsFlags) Setup() []exec.Option {
	var opts []exec.Option
	if f.TracePath != "" {
		var w io.Writer = os.Stderr
		if f.TracePath != "-" {
			file, err := os.Create(f.TracePath)
			if err != nil {
				log.Fatal(err)
			}
			// A traced yield request ends 128 slab spans; buffered, they
			// cost a write call per buffer instead of one per span.
			// Close flushes the buffer, so the file is whole only after
			// Close.
			f.file = file
			f.buf = bufio.NewWriter(file)
			w = f.buf
		}
		f.trace = obs.NewJSONL(w)
		opts = append(opts, exec.WithTracer(f.trace))
	}
	// A trace alone still gets a registry: the final metrics event is part
	// of the trace schema.
	if f.Metrics || f.trace != nil {
		f.reg = obs.NewRegistry()
		opts = append(opts, exec.WithMetrics(f.reg))
	}
	if f.PprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(f.PprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	return opts
}

// Registry returns the metrics registry (nil when neither -trace nor
// -metrics was given).
func (f *ObsFlags) Registry() *obs.Registry { return f.reg }

// Close flushes the sinks: the metrics snapshot is appended to the trace
// (schema event type "metrics") and, with -metrics, printed to stderr;
// the trace file's buffer is flushed and the file closed. Errors are
// fatal so a truncated trace never passes silently.
func (f *ObsFlags) Close() {
	if f.trace != nil {
		f.trace.EmitMetrics(f.reg)
		if err := f.trace.Err(); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
	if f.file != nil {
		if err := f.buf.Flush(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := f.file.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
	if f.Metrics && f.reg != nil {
		if err := f.reg.WriteJSON(os.Stderr); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
}
