// Package obs is the zero-dependency observability substrate for the flow
// and sweep engines: a Tracer interface producing wall-clock spans (stage
// name, tier, attributes), an atomic metrics Registry
// (counters/gauges/histograms), and pluggable sinks — a no-op default, an
// in-memory Recorder for tests, and a JSON-lines event writer for the
// CLIs. Everything here is stdlib-only and safe for concurrent use.
//
// The package is wired through the public option surface only
// (exec.WithTracer / exec.WithMetrics, re-exported as m3d.WithTracer /
// m3d.WithMetrics): a run resolves its sinks once into exec.Settings and
// hands them to the code it instruments. Disabled instrumentation is the
// default and is engineered to be near-free: a nil Tracer skips span
// allocation entirely, and every Registry/Counter/Gauge/Histogram method
// is nil-receiver-safe so call sites need no guards.
package obs

import (
	"strconv"
	"time"
)

// Attr is one key/value span attribute. Values are strings so that every
// sink (including the JSON-lines writer) renders them identically.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Float builds a float attribute (shortest round-trip formatting).
func Float(k string, v float64) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Span is one timed operation. End must be called exactly once; SetAttr
// may be called any time before End.
type Span interface {
	SetAttr(attrs ...Attr)
	End()
}

// Tracer starts spans. Implementations must be safe for concurrent use.
type Tracer interface {
	StartSpan(name string, attrs ...Attr) Span
}

// nop implementations.

type nopTracer struct{}

type nopSpanT struct{}

func (nopTracer) StartSpan(string, ...Attr) Span { return nopSpan }

func (nopSpanT) SetAttr(...Attr) {}
func (nopSpanT) End()            {}

var nopSpan Span = nopSpanT{}

// Nop returns the no-op tracer: spans cost two interface calls and no
// allocation.
func Nop() Tracer { return nopTracer{} }

// now is the clock used by tracers without an explicit override.
func now() time.Time { return time.Now() }
