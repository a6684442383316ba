package experiments

import (
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/trace"
)

// CaptureTrace runs the canonical trace scenario — six commercial apps
// launched and used, then two rounds of switches across them — with event
// tracing on, and returns the event log. It is the scenario behind
// `fleetsim trace` (CSV to stdout, Chrome JSON via -trace-out) and
// fleetd's GET /v1/jobs/{id}/trace endpoint; keeping it here means both
// frontends serve byte-identical traces for the same params and policy.
func CaptureTrace(p Params, policy android.PolicyKind) *trace.Log {
	cfg := systemConfig(p, policy)
	cfg.Seed = p.Seed
	sys := android.NewSystem(cfg)
	log := sys.EnableTrace()
	profiles := apps.CommercialProfiles(p.Scale)[:6]
	procs := make([]*android.Proc, len(profiles))
	for i, pr := range profiles {
		procs[i] = sys.Launch(pr)
		sys.Use(12 * time.Second)
	}
	for r := 0; r < 2; r++ {
		for i := range procs {
			_, procs[i] = sys.SwitchTo(procs[i])
			sys.Use(12 * time.Second)
		}
	}
	sys.PublishTelemetry()
	return log
}
