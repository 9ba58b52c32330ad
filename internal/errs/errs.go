// Package errs defines the library-wide sentinel errors of the public
// error contract (re-exported as m3d.ErrCanceled, m3d.ErrBadSpec and
// m3d.ErrThermalLimit). The flow, analytic and core packages wrap these
// with %w, so callers classify failures with errors.Is instead of
// string-matching:
//
//	_, err := m3d.RunFlow(pdk, spec, m3d.WithContext(ctx))
//	switch {
//	case errors.Is(err, m3d.ErrCanceled):     // ctx cancelled / deadline
//	case errors.Is(err, m3d.ErrBadSpec):      // invalid spec or parameters
//	case errors.Is(err, m3d.ErrThermalLimit): // Eq. 17 budget exceeded
//	}
//
// Cancellation errors additionally match context.Canceled /
// context.DeadlineExceeded (double-wrapped), so pre-existing callers keep
// working.
package errs

import "errors"

var (
	// ErrCanceled marks a run aborted by context cancellation or
	// deadline before completing.
	ErrCanceled = errors.New("m3d: run canceled")
	// ErrBadSpec marks an invalid SoC spec, analytical parameter set,
	// load, or sweep axis.
	ErrBadSpec = errors.New("m3d: bad spec")
	// ErrThermalLimit marks an Eq. 17 temperature-rise budget violation.
	ErrThermalLimit = errors.New("m3d: thermal limit exceeded")
	// ErrOverloaded marks work refused by an admission gate because the
	// in-flight limit and its waiting queue are both full (load shedding;
	// the HTTP service maps it to 429 Too Many Requests).
	ErrOverloaded = errors.New("m3d: overloaded")
	// ErrNotFound marks a lookup of an entity that does not exist — an
	// unknown job ID, a missing job record, an absent artifact (the HTTP
	// service maps it to 404 Not Found).
	ErrNotFound = errors.New("m3d: not found")
)
