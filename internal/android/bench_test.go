package android

import (
	"testing"
	"time"

	"fleetsim/internal/apps"
)

// BenchmarkRelaunch measures one cold relaunch on a warm device: each
// iteration kills the least recently used of six cached commercial apps
// and switches back to it, so the relaunch's Launch retires the killed
// process and builds the app's heap again. B/op and allocs/op show what a
// relaunch costs the host's Go heap.
func BenchmarkRelaunch(b *testing.B) {
	const scale = 64
	cfg := DefaultSystemConfig(PolicyAndroid, scale)
	cfg.Seed = 42
	sys := NewSystem(cfg)
	procs := make([]*Proc, 6)
	for i, pr := range apps.CommercialProfiles(scale)[:len(procs)] {
		procs[i] = sys.Launch(pr)
		sys.Use(2 * time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(procs)
		sys.Kill(procs[k])
		_, procs[k] = sys.SwitchTo(procs[k])
	}
}
