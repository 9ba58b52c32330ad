package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"m3d/internal/obs"
)

// maxBatchItems bounds one POST /v1/batch body. A batch occupies a
// single admission slot, so the bound keeps one request from smuggling
// an unbounded amount of work past the gate.
const maxBatchItems = 256

// BatchItem is one element of the POST /v1/batch array: exactly one of
// Sweep or Flow must be set.
type BatchItem struct {
	Sweep *SweepRequest `json:"sweep,omitempty"`
	Flow  *FlowRequest  `json:"flow,omitempty"`
}

// BatchItemResult is one element of the POST /v1/batch reply array,
// streamed in input order as evaluations finish. Status carries the HTTP
// status the item would have received as a standalone request
// (200/400/422/408/...); exactly one of Sweep/Flow is set on success,
// Error on failure. Item failures are isolated: one bad spec or thermal
// violation fails that item only, never its neighbours.
type BatchItemResult struct {
	Index  int            `json:"index"`
	Status int            `json:"status"`
	Error  string         `json:"error,omitempty"`
	Sweep  *SweepResponse `json:"sweep,omitempty"`
	Flow   *FlowResponse  `json:"flow,omitempty"`
}

// handleBatch is POST /v1/batch: a heterogeneous array of sweep/flow
// items evaluated under ONE admission slot (taken by the route handler),
// fanned out through the exec pool, and streamed back as a chunked JSON
// array in input order — each element is flushed as soon as it (and all
// lower-indexed items) finished, so clients consume early results while
// later items still compute. Items share the endpoint coalescing caches,
// so duplicates inside a batch, across batches, and against /v1/sweep //
// /v1/flow all evaluate once.
//
// The top-level request fails as a whole (400) only when the body is not
// a well-formed JSON array or exceeds maxBatchItems; everything
// item-level — malformed item object, unknown field, invalid spec,
// thermal violation, canceled evaluation — is reported in that item's
// Status/Error with its neighbours unaffected.
func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	// Decode leniently to raw items first: per-item JSON problems must
	// isolate to the item, only an unparseable array is a request error.
	var raws []json.RawMessage
	if err := decode(r.Body, &raws); err != nil {
		return err
	}
	if len(raws) == 0 {
		return badSpec("batch needs at least one item")
	}
	if len(raws) > maxBatchItems {
		return badSpec("%d batch items exceed the per-request limit %d", len(raws), maxBatchItems)
	}

	n := len(raws)
	s.reg.Counter("serve.batch.requests").Add(1)
	s.reg.Counter("serve.batch.items").Add(int64(n))
	if s.tracer != nil {
		defer s.tracer.StartSpan("serve.batch.run", obs.Int("items", n)).End()
	}

	// Fan out: one goroutine per item, at most the pool width evaluating
	// at once (each evaluation itself fans its sweep grid / flow stages
	// onto the exec pool). Results land in their input slot; the writer
	// below streams slot i as soon as items 0..i are settled.
	results := make([]*BatchItemResult, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, s.workers)
	for i, raw := range raws {
		go func(i int, raw json.RawMessage) {
			defer close(done[i])
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				results[i] = s.batchResult(i, nil, canceledErr(ctx))
				return
			}
			results[i] = s.evalBatchItem(ctx, i, raw)
		}(i, raw)
	}

	// Stream the reply through the shared chunked-array encoder: status
	// and headers commit before the first item, so item failures surface
	// in-band; slot i flushes as soon as items 0..i are settled.
	st := newArrayStream(w)
	if !st.ok() {
		return nil // client gone; the handler already committed 200
	}
	itemErrs := s.reg.Counter("serve.batch.item.errors")
	for i := 0; i < n; i++ {
		<-done[i]
		if results[i].Error != "" {
			itemErrs.Add(1)
		}
		if !st.emit(results[i]) {
			break
		}
	}
	st.close()
	return nil
}

// evalBatchItem decodes, validates and evaluates one raw batch item,
// folding any failure into the item's result.
func (s *Server) evalBatchItem(ctx context.Context, idx int, raw json.RawMessage) *BatchItemResult {
	item, err := decodeBatchItem(raw)
	if err != nil {
		return s.batchResult(idx, nil, err)
	}
	if item.Sweep != nil {
		resp, err := s.sweepCached(ctx, item.Sweep)
		if err != nil {
			return s.batchResult(idx, nil, err)
		}
		return s.batchResult(idx, &BatchItemResult{Sweep: resp}, nil)
	}
	resp, err := s.flowCached(ctx, item.Flow)
	if err != nil {
		return s.batchResult(idx, nil, err)
	}
	return s.batchResult(idx, &BatchItemResult{Flow: resp}, nil)
}

// decodeBatchItem strictly decodes one array element and checks the
// sweep/flow one-of. Violations match errs.ErrBadSpec.
func decodeBatchItem(raw json.RawMessage) (*BatchItem, error) {
	var item BatchItem
	if err := decode(bytes.NewReader(raw), &item); err != nil {
		return nil, err
	}
	if (item.Sweep == nil) == (item.Flow == nil) {
		return nil, badSpec("batch item needs exactly one of sweep or flow")
	}
	return &item, nil
}

// batchResult fills the Index/Status/Error envelope around a settled
// item: ok carries the success payload, err the failure.
func (s *Server) batchResult(idx int, ok *BatchItemResult, err error) *BatchItemResult {
	if err != nil {
		return &BatchItemResult{Index: idx, Status: statusOf(err), Error: err.Error()}
	}
	ok.Index = idx
	ok.Status = http.StatusOK
	return ok
}

// canceledErr wraps a finished context's error so statusOf maps it to
// 408, matching a standalone request canceled at the same point.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("serve: batch item not started: %w", ctx.Err())
}
