// Supervised execution: the fault-tolerant variant of Map. Plain Map
// assumes legs are pure and well-behaved; a single panicking leg kills the
// whole process and a wedged leg hangs the sweep forever. SupervisedMap
// recovers per-leg panics into typed LegErrors (stack + item index
// attached) and enforces an optional per-leg wall-clock deadline via a
// watchdog goroutine, so a campaign returns partial results plus an error
// report instead of dying. Cells adds the campaign's checkpoint journal
// and graceful interrupt on top.
package runner

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// ErrLegPanic is the sentinel wrapped by LegErrors produced from a
// recovered panic.
var ErrLegPanic = errors.New("runner: leg panicked")

// ErrLegTimeout is the sentinel wrapped by LegErrors produced when a leg
// exceeded its wall-clock deadline. The leg's goroutine is abandoned (Go
// cannot kill it), so a timed-out leg may still be burning CPU in the
// background; the sweep no longer waits on it.
var ErrLegTimeout = errors.New("runner: leg exceeded its deadline")

// LegError describes one failed leg of a supervised sweep.
type LegError struct {
	// Index is the item index within the input slice.
	Index int
	// Err is the underlying failure: the leg's returned error, or a
	// wrapped ErrLegPanic / ErrLegTimeout.
	Err error
	// Stack is the goroutine stack captured at the panic site (empty for
	// ordinary errors and timeouts).
	Stack string
	// Panicked and TimedOut classify the failure.
	Panicked bool
	TimedOut bool
}

// Error renders the failure with its item index.
func (e *LegError) Error() string { return fmt.Sprintf("leg %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *LegError) Unwrap() error { return e.Err }

// Policy configures supervision.
type Policy struct {
	// Deadline is the per-leg wall-clock budget. 0 disables the watchdog
	// (legs run inline and may block forever).
	Deadline time.Duration
}

// SupervisedMap runs fn over items on the worker pool under a supervision
// policy: panics are recovered into LegErrors carrying the item index and
// stack, and each leg is bounded by pol.Deadline. A failed leg is never
// rerun: a panic is a bug and a wedged leg would just wedge again.
// Results are in input order (zero value where the leg failed);
// LegErrors are in index order.
func SupervisedMap[T, R any](items []T, pol Policy, fn func(int, T) (R, error)) ([]R, []*LegError) {
	type slot struct {
		r  R
		le *LegError
	}
	slots := Map(items, func(i int, it T) slot {
		r, le := runLeg(pol.Deadline, i, it, fn)
		if le != nil {
			return slot{le: le}
		}
		return slot{r: r}
	})
	out := make([]R, len(items))
	var errs []*LegError
	for i, s := range slots {
		out[i] = s.r
		if s.le != nil {
			errs = append(errs, s.le)
		}
	}
	return out, errs
}

// runLeg executes one leg, recovering panics and — when a deadline is
// set — racing the leg against a watchdog timer. With no deadline the leg
// runs inline on the caller's goroutine, preserving the serial execution
// profile of Map at parallelism 1.
func runLeg[T, R any](deadline time.Duration, i int, it T, fn func(int, T) (R, error)) (R, *LegError) {
	leg := func() (r R, le *LegError) {
		defer func() {
			if p := recover(); p != nil {
				le = &LegError{Index: i, Err: fmt.Errorf("%w: %v", ErrLegPanic, p),
					Stack: string(debug.Stack()), Panicked: true}
			}
		}()
		r, err := fn(i, it)
		if err != nil {
			le = &LegError{Index: i, Err: err}
		}
		return r, le
	}
	if deadline <= 0 {
		return leg()
	}
	type result struct {
		r  R
		le *LegError
	}
	// Buffered so an abandoned (timed-out) leg can still deliver and exit
	// instead of leaking blocked forever.
	ch := make(chan result, 1)
	go func() {
		r, le := leg()
		ch <- result{r, le}
	}()
	watchdog := time.NewTimer(deadline)
	defer watchdog.Stop()
	select {
	case v := <-ch:
		return v.r, v.le
	case <-watchdog.C:
		var zero R
		return zero, &LegError{Index: i, Err: fmt.Errorf("%w: %v elapsed", ErrLegTimeout, deadline), TimedOut: true}
	}
}

// Journal records a campaign's finished cells by key. *snapshot.Store
// satisfies it.
type Journal interface {
	// Get decodes cell's recorded result into out, reporting whether
	// there was one.
	Get(cell string, out any) bool
	// Put records cell's result; an error means it was not recorded.
	Put(cell string, v any) error
}

// Campaign is how a long campaign runs its cells: each under the
// supervision Policy, answered from and recorded in Journal (nil: no
// checkpointing), and not started once Interrupted (nil: never) reports
// true. A nil pointer stored in Journal is not a nil Journal: leave the
// field unset instead.
type Campaign struct {
	Policy
	Journal     Journal
	Interrupted func() bool
}

// Tally is a campaign's accounting.
type Tally struct {
	// Resumed counts cells answered from the journal; Skipped counts
	// cells not run because the campaign was interrupted.
	Resumed, Skipped int
	// Errors lists the failed cells in index order.
	Errors []*LegError
}

// Cells runs one campaign cell per key on the worker pool. A cell the
// journal holds is answered from it, even after an interrupt; once
// c.Interrupted reports true the other cells are skipped; the rest run
// under c.Policy and are recorded under their key, and a cell whose
// record is refused fails. done[i] reports whether out[i] holds cell i's
// result, fresh or resumed.
func Cells[R any](c Campaign, keys []string, run func(i int) R) (out []R, done []bool, t Tally) {
	type cell struct {
		r             R
		done, resumed bool
	}
	cells, errs := SupervisedMap(keys, c.Policy, func(i int, key string) (cell, error) {
		var cached R
		if c.Journal != nil && c.Journal.Get(key, &cached) {
			return cell{r: cached, done: true, resumed: true}, nil
		}
		if c.Interrupted != nil && c.Interrupted() {
			return cell{}, nil
		}
		r := run(i)
		if c.Journal != nil {
			if err := c.Journal.Put(key, r); err != nil {
				return cell{}, fmt.Errorf("checkpoint cell %s: %w", key, err)
			}
		}
		return cell{r: r, done: true}, nil
	})
	out, done = make([]R, len(keys)), make([]bool, len(keys))
	t = Tally{Skipped: len(keys) - len(errs), Errors: errs}
	for i, s := range cells {
		out[i], done[i] = s.r, s.done
		if s.done {
			t.Skipped--
		}
		if s.resumed {
			t.Resumed++
		}
	}
	return out, done, t
}
