// The campaign the registered experiments run under, and sweep-leg
// checkpointing: the big figure sweeps (Fig. 13/16) run one expensive
// simulation per policy; each leg's serializable summary is recorded in
// the campaign's journal so an interrupted sweep resumes with only the
// missing legs. Every leg is reduced through the same legSummary path
// whether it ran fresh or came from the journal, so resumed results are
// bit-identical to uninterrupted ones.

package experiments

import (
	"fmt"
	"strings"
	"sync"

	"fleetsim/internal/android"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
	"fleetsim/internal/vmem"
)

var (
	campaignMu sync.Mutex
	campaign   runner.Campaign
)

// SetCampaign installs the process-wide campaign the registered
// experiments run under: the population campaign runs its shards under
// all of it, and the figure sweeps record their policy legs in its
// Journal. Registered runners stay pure — the journal and the interrupt
// only skip or resume work, they cannot change a completed cell's result.
// cmd/fleetsim wires it to -checkpoint-dir, -timeout and its SIGINT
// latch; the zero Campaign (the default) journals nothing and never
// interrupts.
func SetCampaign(c runner.Campaign) {
	campaignMu.Lock()
	campaign = c
	campaignMu.Unlock()
}

func currentCampaign() runner.Campaign {
	campaignMu.Lock()
	defer campaignMu.Unlock()
	return campaign
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

// checkpointedLeg answers a sweep leg from the campaign's journal when
// possible, otherwise runs it and records the summary. The cell key folds
// the measured-app set and the policy; the campaign key (checked at store
// open) covers the Params. Legs neither poll the interrupt nor fail on a
// refused record, so an interrupted or journal-failing sweep still prints
// its whole table.
func checkpointedLeg(pol android.PolicyKind, measuredNames []string,
	run func() *hotRun) *legSummary {

	j := currentCampaign().Journal
	cell := fmt.Sprintf("fig13/%s/%s", strings.Join(measuredNames, ","), pol)
	if j != nil {
		cached := &legSummary{}
		if j.Get(cell, cached) {
			return cached
		}
	}
	ls := summarizeLeg(run())
	if j != nil {
		// A refused append latches the store; cmd/fleetsim reports it
		// through Failed once the output is complete.
		_ = j.Put(cell, ls)
	}
	return ls
}
