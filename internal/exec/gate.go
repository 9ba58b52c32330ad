package exec

import (
	"context"
	"fmt"
	"sync/atomic"

	"m3d/internal/errs"
)

// Gate is a bounded admission controller for request-shaped work: at most
// maxInFlight holders are admitted at once, at most maxQueue callers wait
// for a slot, and everything beyond that is shed immediately with an
// error matching errs.ErrOverloaded. It is the admission layer in front
// of the worker pool — Map bounds how much admitted work runs
// concurrently; a Gate bounds how much work is admitted at all, which is
// what lets a server return 429 instead of queueing without bound.
//
// A Gate is safe for concurrent use. The zero value is not usable; build
// one with NewGate.
type Gate struct {
	slots   chan struct{}
	waiting atomic.Int64
	maxWait int64
}

// NewGate returns a gate admitting maxInFlight concurrent holders with a
// waiting queue of maxQueue. maxInFlight < 1 is treated as 1; maxQueue
// < 0 is treated as 0 (shed as soon as every slot is taken).
func NewGate(maxInFlight, maxQueue int) *Gate {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Gate{slots: make(chan struct{}, maxInFlight), maxWait: int64(maxQueue)}
}

// Enter admits the caller, blocking in the waiting queue when all slots
// are taken. It returns an error matching errs.ErrOverloaded when the
// queue is full (the caller was shed and must not call Leave), or an
// error matching errs.ErrCanceled and ctx.Err() when ctx ends while
// waiting. A nil error means the caller holds a slot and must Leave.
func (g *Gate) Enter(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if err := g.reserveWait(); err != nil {
		return err
	}
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return canceled(ctx.Err())
	}
}

// reserveWait claims one waiting-queue position, shedding with
// errs.ErrOverloaded when the queue is full. The caller owns the
// position and must release it with waiting.Add(-1).
func (g *Gate) reserveWait() error {
	if g.waiting.Add(1) > g.maxWait {
		g.waiting.Add(-1)
		return fmt.Errorf("exec: admission queue full (%d in flight, %d waiting): %w",
			cap(g.slots), g.maxWait, errs.ErrOverloaded)
	}
	return nil
}

// Leave releases the slot acquired by a successful Enter.
func (g *Gate) Leave() {
	select {
	case <-g.slots:
	default:
		// Tolerate unbalanced calls rather than deadlocking the caller.
	}
}

// InFlight reports the number of admitted holders.
func (g *Gate) InFlight() int { return len(g.slots) }

// Waiting reports the number of callers queued for a slot.
func (g *Gate) Waiting() int { return int(g.waiting.Load()) }
