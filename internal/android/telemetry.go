package android

import (
	"time"

	"fleetsim/internal/telemetry"
	"fleetsim/internal/vmem"
)

// PublishTelemetry exports the run's aggregate simulation metrics —
// launch latencies, GC pauses and copy volume, swap traffic, lmkd kills —
// into the process sim-telemetry registry, labelled by the system's
// memory policy. When no registry is installed (the default: library use,
// the test suite, fleetsim without a daemon) this is a nil-check and
// return. The bridge is strictly write-only and runs after the
// simulation finishes, so enabling it cannot perturb determinism; the
// telemetry determinism test in internal/experiments pins that.
func (s *System) PublishTelemetry() {
	reg := telemetry.SimRegistry()
	if reg == nil {
		return
	}
	const ms = float64(time.Millisecond)
	policy := s.Cfg.Policy.String()

	hot := reg.Histogram("fleetsim_hot_launch_ms",
		"Hot-launch latency by memory policy.", telemetry.LatencyBuckets, "policy", policy)
	cold := reg.Histogram("fleetsim_cold_launch_ms",
		"Cold-launch latency by memory policy.", telemetry.LatencyBuckets, "policy", policy)
	for _, l := range s.M.Launches {
		if l.Hot {
			hot.Observe(float64(l.Time) / ms)
		} else {
			cold.Observe(float64(l.Time) / ms)
		}
	}

	pause := reg.Histogram("fleetsim_gc_pause_ms",
		"Stop-the-world GC pause by memory policy.", telemetry.LatencyBuckets, "policy", policy)
	var copied int64
	for _, g := range s.M.GCs {
		pause.Observe(float64(g.Pause) / ms)
		copied += g.BytesCopied
	}
	reg.Counter("fleetsim_gc_bytes_copied_total",
		"Bytes moved by copying/compacting collections, by memory policy.", "policy", policy).Add(copied)

	st := s.VM.Stats()
	reg.Counter("fleetsim_swap_ins_total",
		"Pages swapped in, by memory policy.", "policy", policy).Add(st.SwapIns)
	reg.Counter("fleetsim_swap_outs_total",
		"Pages swapped out, by memory policy.", "policy", policy).Add(st.SwapOuts)

	kills := func(kind string, n int) {
		reg.Counter("fleetsim_lmkd_kills_total",
			"lmkd and OOM kills by policy and kind.", "policy", policy, "kind", kind).Add(int64(n))
	}
	kills("hard", s.M.HardKills)
	kills("psi", s.M.PSIKills)
	kills("oom", s.M.OOMKills)
	kills("crash", s.M.CrashKills)
	kills("swam", s.M.SwamKills)

	// Compressed-backend counters, published only when the device actually
	// runs one so flash-only fleets keep a clean /metrics page.
	if s.Cfg.Device.Swap.Backend != vmem.BackendZram {
		return
	}
	z := s.VM.Swap.BackendStats()
	backend := s.Cfg.Device.Swap.Backend.String()
	zc := func(name, help string, v int64) {
		reg.Counter(name, help, "policy", policy, "backend", backend).Add(v)
	}
	zc("fleetsim_zram_stored_pages",
		"Pages resident compressed in the zram pool at end of run.", z.StoredPages)
	zc("fleetsim_zram_compressed_bytes",
		"Pool bytes occupied by compressed pages at end of run.", z.CompressedBytes)
	zc("fleetsim_zram_fallthroughs_total",
		"Incompressible pages routed straight to backing flash.", z.Fallthroughs)
	zc("fleetsim_zram_writebacks_total",
		"Cold compressed pages written back to flash for pool room.", z.Writebacks)
	zc("fleetsim_zram_full_rejects_total",
		"Stores refused because neither pool nor backing had room.", z.FullRejects)
	zc("fleetsim_zram_compress_cpu_ms_total",
		"CPU time charged to reclaim for page compression.", int64(z.CompressCPU/time.Millisecond))
	zc("fleetsim_zram_decompress_cpu_ms_total",
		"CPU time charged to faulting threads for decompression.", int64(z.DecompressCPU/time.Millisecond))
	zc("fleetsim_zram_writeback_io_ms_total",
		"Asynchronous device time spent on hotness-driven writeback.", int64(z.WritebackIO/time.Millisecond))
}
