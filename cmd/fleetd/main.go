// Command fleetd serves the simulator as a long-running daemon: clients
// submit campaign jobs (experiment names plus parameter overrides) over
// the versioned /v1 HTTP API, a worker pool runs them under the campaign
// supervisor, results stream back as NDJSON, and every state transition
// is journaled so a restarted daemon resumes incomplete jobs
// bitwise-identically.
//
//	fleetd -addr :8080 -workers 4 -queue 64 -journal ckpt/fleetd.jsonl
//
//	curl -s localhost:8080/v1/healthz
//	id=$(curl -s -X POST localhost:8080/v1/jobs \
//	      -d '{"experiments":["fig2"],"quick":true}' | jq -r .id)
//	curl -s localhost:8080/v1/jobs/$id/stream    # NDJSON progress
//	curl -s localhost:8080/v1/jobs/$id/result    # assembled output
//	curl -s localhost:8080/v1/jobs/$id/trace     # Perfetto-loadable trace
//	curl -s localhost:8080/metrics               # Prometheus exposition
//
// With -debug-addr a second, private listener serves net/http/pprof and
// a /metrics mirror.
//
// On SIGTERM/SIGINT the daemon drains gracefully: it stops admitting
// (submit → 503), finishes or checkpoints in-flight jobs at the next cell
// boundary, flushes the journal and exits 0. A second signal aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fleetsim/internal/buildinfo"
	"fleetsim/internal/experiments"
	"fleetsim/internal/service"
	"fleetsim/internal/telemetry"
	"fleetsim/internal/telemetry/slogx"
)

var (
	addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
	workers       = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queueCap      = flag.Int("queue", 64, "queued-job admission bound (full queue sheds with 429)")
	journal       = flag.String("journal", "", "checkpoint journal path (empty = no durability)")
	scale         = flag.Int64("scale", 32, "default device scale divisor for jobs that do not override it")
	rounds        = flag.Int("rounds", 10, "default launch rounds")
	seed          = flag.Uint64("seed", 1, "default simulation seed")
	deadline      = flag.Duration("timeout", 0, "wall-clock deadline per job cell (0 = none)")
	tenantWeights = flag.String("tenant-weights", "",
		"per-tenant fair-share weights as name=weight,... (weight 0 refuses the tenant at submit)")
	defaultTenantWeight = flag.Int("default-tenant-weight", 1, "fair-share weight for tenants not named in -tenant-weights")
	codelTarget         = flag.Duration("codel-target", 100*time.Millisecond,
		"queue-delay target of the overload controller; background is shed after delay holds above it for -codel-interval")
	codelInterval = flag.Duration("codel-interval", 0, "how long queue delay must stay above target before shedding (0 = 5x target)")
	pidfile       = flag.String("pidfile", "", "write the daemon pid to this file once listening")
	logLevel      = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
	debugAddr     = flag.String("debug-addr", "", "private debug listener serving net/http/pprof and /metrics (empty = off)")
	version       = flag.Bool("version", false, "print the build stamp and exit")
)

func main() {
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Read().String("fleetd"))
		return
	}
	log, err := slogx.Setup(os.Stderr, *logLevel, "fleetd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(2)
	}

	p := experiments.DefaultParams()
	p.Scale = *scale
	p.Rounds = *rounds
	p.Seed = *seed

	weights, err := service.ParseTenantWeights(*tenantWeights)
	if err != nil {
		log.Error("bad -tenant-weights", "err", err)
		os.Exit(2)
	}

	// One process-wide registry: the service publishes its queue/worker/
	// journal instruments into it, and the sim bridge routes per-policy
	// simulation metrics (GC pauses, swap traffic, launches) into the
	// same registry, so one /metrics scrape covers the whole stack.
	reg := telemetry.Default()
	telemetry.SetSimRegistry(reg)

	svc, err := service.New(service.Config{
		Workers:             *workers,
		QueueCap:            *queueCap,
		JournalPath:         *journal,
		Params:              p,
		Deadline:            *deadline,
		Telemetry:           reg,
		TenantWeights:       weights,
		DefaultTenantWeight: *defaultTenantWeight,
		CoDelTarget:         *codelTarget,
		CoDelInterval:       *codelInterval,
	})
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if st := svc.Stats(); st.ResumedJobs > 0 {
		log.Info("resumed incomplete jobs from journal",
			"jobs", st.ResumedJobs, "cells", st.ResumedCells)
	}
	if st := svc.Stats(); st.Epoch > 0 {
		log.Info("journal lease acquired", "epoch", st.Epoch)
		if st.QuarantinedTail != "" {
			// A torn tail is the normal artifact of a crash mid-append; a
			// corrupt one means bytes inside the journal failed their
			// checksum and the preserved .quarantine file deserves a look.
			log.Warn("journal tail quarantined on replay", "reason", st.QuarantinedTail)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: svc.Handler()}
	log.Info("listening",
		"build", buildinfo.Read().String("fleetd"), "addr", ln.Addr().String(),
		"workers", *workers, "queue", *queueCap, "journal", *journal)
	if *pidfile != "" {
		if err := os.WriteFile(*pidfile, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
			log.Warn("pidfile write failed", "path", *pidfile, "err", err)
		}
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Error("debug listen failed", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		debugSrv = &http.Server{Handler: debugMux(reg)}
		go debugSrv.Serve(dln)
		log.Info("debug listener up (pprof + metrics)", "addr", dln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Error("serve failed", "err", err)
		svc.Close()
		os.Exit(1)
	case sig := <-sigc:
		log.Info("draining: finishing or checkpointing in-flight jobs (signal again to abort)",
			"signal", sig.String())
	}
	go func() {
		<-sigc
		log.Warn("aborted")
		os.Exit(130)
	}()

	// Drain: stop admitting, park the workers at the next cell boundary,
	// flush and close the journal, then stop serving.
	if err := svc.Close(); err != nil {
		log.Error("journal close failed", "err", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if debugSrv != nil {
		debugSrv.Shutdown(ctx)
	}
	st := svc.Stats()
	log.Info("drained, exiting 0",
		"completed", st.Completed, "failed", st.Failed, "cancelled", st.Cancelled,
		"shed", st.Shed, "queued", st.QueueDepth)
}

// debugMux serves the private diagnostics surface: the pprof index and
// profiles plus a /metrics mirror, on a listener that is never exposed
// alongside the public API.
func debugMux(reg *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", service.MetricsHandler(reg))
	return mux
}
