// Running simulations as managed work: the supervised fan-out primitive,
// the campaign that checkpoints and interrupts it, and the crash-tolerant
// checkpoint journal. The fleetd daemon core is internal/service; cmd/fleetd
// serves it.
package fleet

import (
	"fleetsim/internal/runner"
	"fleetsim/internal/snapshot"
)

// LegError describes one failed leg of a supervised fan-out: which item,
// whether it panicked or timed out, and the stack.
type LegError = runner.LegError

// SupervisePolicy bounds supervised legs by a wall-clock deadline.
type SupervisePolicy = runner.Policy

// SupervisedMap fans items out on the worker pool with panic isolation
// and per-leg deadlines; failed legs come back as LegErrors instead of
// aborting the batch.
func SupervisedMap[T, R any](items []T, pol SupervisePolicy, fn func(int, T) (R, error)) ([]R, []*LegError) {
	return runner.SupervisedMap(items, pol, fn)
}

// Campaign is how a long campaign runs its cells: a SupervisePolicy, an
// optional checkpoint Journal (a *CheckpointStore; leave it unset rather
// than storing a nil pointer) and an optional interrupt poll. Journaled
// cells are answered even after an interrupt; the others are skipped.
type Campaign = runner.Campaign

// CheckpointStore is an append-only JSONL journal of completed campaign
// cells; see internal/snapshot for the journal format and crash tolerance.
type CheckpointStore = snapshot.Store

// OpenCheckpoint opens (or creates) a checkpoint journal at path. Existing
// cells are resumed only when their campaign key matches; a mismatched
// journal is discarded and restarted.
func OpenCheckpoint(path, campaign string) (*CheckpointStore, error) {
	return snapshot.Open(path, campaign)
}
