// Sweep-leg checkpointing: the big figure sweeps (Fig. 13/16) run one
// expensive simulation per policy; each leg's serializable summary is
// recorded in the session's checkpoint store so an interrupted sweep
// resumes with only the missing legs. Every leg is reduced through the
// same legSummary path whether it ran fresh or came from the store, so
// resumed results are bit-identical to uninterrupted ones.

package experiments

import (
	"fmt"
	"strings"
	"sync"

	"fleetsim/internal/android"
	"fleetsim/internal/metrics"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/vmem"
)

var (
	ckptMu    sync.Mutex
	ckptStore *snapshot.Store
)

// SetCheckpointStore installs (or, with nil, removes) the process-wide
// checkpoint store the figure sweeps record their legs in. cmd/fleetsim
// wires this to -checkpoint-dir.
func SetCheckpointStore(st *snapshot.Store) {
	ckptMu.Lock()
	ckptStore = st
	ckptMu.Unlock()
}

// CheckpointStore returns the installed store (nil when checkpointing is
// off).
func CheckpointStore() *snapshot.Store {
	ckptMu.Lock()
	defer ckptMu.Unlock()
	return ckptStore
}

// SweepCampaignKey canonically encodes the Params that determine every
// figure sweep's results, for use as a checkpoint campaign key. The swap
// backend is keyed by its parsed kind, so "" and "flash" share a key; an
// unknown name would key as flash, but frontends reject it before opening
// a store.
func SweepCampaignKey(p Params) string {
	backend, _ := vmem.ParseBackend(p.Backend)
	return fmt.Sprintf("sweep/v2|scale=%d|rounds=%d|use=%s|apps=%d|seed=%d|backend=%s",
		p.Scale, p.Rounds, p.UseTime, p.PressureApps, p.Seed, backend)
}

// legSummary is the serializable outcome of one policy leg of the §7.2
// protocol — everything Fig13Result construction needs, nothing else.
type legSummary struct {
	Policy    string
	Kills     int
	ColdCount int
	HotCount  int
	All       map[string]*metrics.Sample
	HotOnly   map[string]*metrics.Sample
}

// summarizeLeg reduces a hotRun to its serializable summary.
func summarizeLeg(run *hotRun) *legSummary {
	return &legSummary{
		Policy:    run.Policy.String(),
		Kills:     run.Sys.M.Kills,
		ColdCount: run.ColdCount,
		HotCount:  run.HotCount,
		All:       run.All,
		HotOnly:   run.HotOnly,
	}
}

// checkpointedLeg answers a sweep leg from the checkpoint store when
// possible, otherwise runs it and records the summary. The cell key folds
// the measured-app set and the policy; the campaign key (checked at store
// open) covers the Params.
func checkpointedLeg(pol android.PolicyKind, measuredNames []string,
	run func() *hotRun) *legSummary {

	st := CheckpointStore()
	cell := fmt.Sprintf("fig13/%s/%s", strings.Join(measuredNames, ","), pol)
	if st != nil {
		cached := &legSummary{}
		if st.Get(cell, cached) {
			return cached
		}
	}
	ls := summarizeLeg(run())
	if st != nil {
		st.Put(cell, ls)
	}
	return ls
}
