// Package service turns the simulator into simulation-as-a-service: a
// long-lived daemon core that accepts campaign jobs (experiment names plus
// parameter overrides) into a bounded FIFO queue, schedules them across a
// worker pool built on runner.SupervisedMap (panic isolation and per-cell
// deadlines carry over from the campaign supervisor),
// journals every state transition through an internal/snapshot.Store so a
// restarted daemon resumes incomplete jobs bitwise-identically, and
// broadcasts per-job progress events to any number of subscribers.
//
// A job is a list of cells — one registered experiment each — run in
// order. Cells are the durability and drain granularity: each completed
// cell's output is journaled immediately, so a SIGTERM drain finishes the
// cell in flight, checkpoints the remainder, and exits; the next daemon
// replays the journal and continues from the first missing cell. Because
// every registered experiment is a pure function of its Params (and the
// effective Params are journaled with the job), the reassembled result is
// byte-identical to an uninterrupted run.
//
// cmd/fleetd wraps this package in an HTTP API (see http.go) and
// cmd/fleetload drives that API under concurrent load.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fleetsim/internal/experiments"
	"fleetsim/internal/fsio"
	"fleetsim/internal/metrics"
	"fleetsim/internal/population"
	"fleetsim/internal/runner"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/telemetry"
	"fleetsim/internal/vmem"
)

// Campaign is the journal campaign key: it names the job wire format, not
// the parameters (each job journals its own effective Params), so one
// daemon journal serves jobs of every shape.
const Campaign = "fleetd/v1"

// MaxCells bounds the number of experiments in one job.
const MaxCells = 64

// Submission errors. The HTTP layer maps these onto status codes
// (ErrQueueFull → 429 with Retry-After, ErrDraining and
// ErrJournalFailing → 503).
var (
	ErrQueueFull = errors.New("service: queue full")
	ErrDraining  = errors.New("service: draining, not admitting jobs")
	ErrUnknown   = errors.New("service: no such job")
	ErrNotDone   = errors.New("service: job not done")
	// ErrOverloaded means the CoDel controller is shedding background
	// admissions: queue delay has been above target for a full interval.
	// Foreground submissions are never refused with this error — they
	// shed only on the hard QueueCap (ErrQueueFull).
	ErrOverloaded = errors.New("service: overloaded, shedding background work")
	// ErrZeroWeight refuses tenants explicitly configured with weight 0:
	// admitting them would queue work the scheduler never serves.
	ErrZeroWeight = errors.New("service: tenant has zero weight")
	// ErrIdempotencyMismatch means an idempotency key was reused with a
	// different spec — replaying either answer would be wrong.
	ErrIdempotencyMismatch = errors.New("service: idempotency key reused with a different spec")
	// ErrJournalFailing means the daemon is in degraded read-only mode:
	// the journal stopped accepting durable appends (failed fsync,
	// ENOSPC, or a newer daemon fenced this one off), so admitting work
	// would mean acking writes that cannot be persisted. Existing state
	// stays readable; submissions are refused.
	ErrJournalFailing = errors.New("service: journal failing, daemon is read-only")
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: Queued → Running → one of Done / Failed / Cancelled.
// A drain can move a Running job back to Queued (checkpointed, to be
// resumed by the next daemon).
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether a job in this status will never run again.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobSpec is the client-facing job description: which experiments to run
// and which experiment parameters to override (zero = daemon default).
type JobSpec struct {
	Experiments []string `json:"experiments"`
	Scale       int64    `json:"scale,omitempty"`
	Rounds      int      `json:"rounds,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	// Quick applies Params.Quick() after the overrides (reduced rounds).
	Quick bool `json:"quick,omitempty"`
	// Tenant names the fair-queueing tenant ("" = "default"). Each
	// tenant's service share follows its configured weight.
	Tenant string `json:"tenant,omitempty"`
	// Class is "foreground" (interactive: served first, shed last) or
	// "background" (batch: absorbs queue pressure, shed first under
	// overload). Empty means foreground.
	Class string `json:"class,omitempty"`
	// DeadlineMS is the client's end-to-end deadline relative to
	// submission. A job still queued (or between cells) past its deadline
	// fails with the typed deadline_exceeded code instead of running
	// stale; the remaining budget also bounds each cell's wall clock.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// IdempotencyKey makes retries safe: a resubmission carrying a key
	// the daemon has already admitted returns the existing job (same ID,
	// same journal entry) instead of double-enqueueing. Keys survive
	// restarts via the journaled spec.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Devices, Tiers and Policies parameterize the population campaign
	// when the job runs the "population" experiment (zero values keep the
	// campaign defaults). Tiers is a "name:weight,..." mix over the
	// built-in device classes, Policies a comma-separated policy list.
	Devices  int    `json:"devices,omitempty"`
	Tiers    string `json:"tiers,omitempty"`
	Policies string `json:"policies,omitempty"`
	// Backend selects the swap backend every experiment cell runs on:
	// "" or "flash" for the paper's flash partition, "zram" for the
	// compressed-RAM device. Validated at admission against the vmem
	// backend registry.
	Backend string `json:"backend,omitempty"`
}

// Event is one progress record of a job's lifetime, streamed to
// subscribers as NDJSON. Phases: queued, started, cell (one experiment
// finished), checkpointed (drain interrupted the job after a cell
// boundary), done, failed, cancelled.
type Event struct {
	Seq        int       `json:"seq"`
	Time       time.Time `json:"time"`
	Job        string    `json:"job"`
	Phase      string    `json:"phase"`
	Cell       int       `json:"cell,omitempty"`
	Cells      int       `json:"cells,omitempty"`
	Experiment string    `json:"experiment,omitempty"`
	// Digest is the FNV-64a digest of the cell output (phase "cell") or of
	// the assembled result (phase "done").
	Digest string `json:"digest,omitempty"`
	// Cached marks a cell answered from the journal instead of executed.
	Cached bool    `json:"cached,omitempty"`
	MS     float64 `json:"ms,omitempty"`
	// QueueDepth is sampled at emit time (phase "queued").
	QueueDepth int `json:"queueDepth,omitempty"`
	// CellP50MS/CellP95MS are the service-wide live cell-latency
	// percentiles at emit time (phase "cell").
	CellP50MS float64 `json:"cellP50ms,omitempty"`
	CellP95MS float64 `json:"cellP95ms,omitempty"`
	Err       string  `json:"err,omitempty"`
	// ErrCode is the typed failure code when one applies (currently
	// "deadline_exceeded").
	ErrCode string `json:"errCode,omitempty"`
}

// JobView is the exported snapshot of one job, served by the status API.
type JobView struct {
	ID        string             `json:"id"`
	Spec      JobSpec            `json:"spec"`
	Params    experiments.Params `json:"params"`
	Status    Status             `json:"status"`
	Cells     int                `json:"cells"`
	CellsDone int                `json:"cellsDone"`
	// QueuePos is the 1-based position among queued jobs (0 otherwise).
	QueuePos    int        `json:"queuePos,omitempty"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	QueueWaitMS float64    `json:"queueWaitMs,omitempty"`
	RunMS       float64    `json:"runMs,omitempty"`
	// Digest identifies the assembled result (set when Status is done).
	Digest string `json:"digest,omitempty"`
	// ResumedCells counts cells answered from the journal of a previous
	// daemon process.
	ResumedCells int    `json:"resumedCells,omitempty"`
	Err          string `json:"err,omitempty"`
	// ErrCode is the typed failure code ("deadline_exceeded") when one
	// applies; clients switch on it, not on Err text.
	ErrCode string `json:"errCode,omitempty"`
	// Tenant and Class echo the admission identity the job runs under.
	Tenant string `json:"tenant,omitempty"`
	Class  Class  `json:"class,omitempty"`
	// DeadlineAt is the absolute queue-expiry instant (set when the spec
	// carried deadline_ms).
	DeadlineAt *time.Time `json:"deadlineAt,omitempty"`
}

// Stats is the service-wide counter and latency snapshot served by
// /healthz and /stats.
type Stats struct {
	Submitted    int  `json:"submitted"`
	Completed    int  `json:"completed"`
	Failed       int  `json:"failed"`
	Cancelled    int  `json:"cancelled"`
	Shed         int  `json:"shed"`
	ResumedJobs  int  `json:"resumedJobs"`
	ResumedCells int  `json:"resumedCells"`
	QueueDepth   int  `json:"queueDepth"`
	Running      int  `json:"running"`
	Workers      int  `json:"workers"`
	QueueCap     int  `json:"queueCap"`
	Draining     bool `json:"draining"`
	// QueueDepthFG/QueueDepthBG split QueueDepth by class.
	QueueDepthFG int `json:"queueDepthFg"`
	QueueDepthBG int `json:"queueDepthBg"`
	// ShedOverload counts background submissions refused by the CoDel
	// controller (subset of neither Shed nor each other: Shed is the hard
	// QueueCap count, ShedOverload the delay-triggered background count).
	ShedOverload int `json:"shedOverload"`
	// OverloadShedding reports whether the controller is currently
	// refusing background admissions; OverloadDelayMS is its latest
	// queue-delay measurement.
	OverloadShedding bool    `json:"overloadShedding"`
	OverloadDelayMS  float64 `json:"overloadDelayMs"`
	// DeadlineExceeded counts jobs failed for expiring in (or re-entering)
	// the queue past their client deadline.
	DeadlineExceeded int `json:"deadlineExceeded"`
	// IdemReplays counts submissions answered from an existing job via
	// idempotency key instead of enqueueing a duplicate.
	IdemReplays int `json:"idemReplays"`
	// Degraded reports journal-failure read-only mode; DegradedReason
	// carries the first append error that flipped it.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// Epoch is the journal lease fencing token this daemon holds
	// (0 = journal-less).
	Epoch uint64 `json:"epoch,omitempty"`
	// JournalErrors counts refused journal appends since startup.
	JournalErrors int `json:"journalErrors,omitempty"`
	// QuarantinedTail names the tail classification ("torn"/"corrupt")
	// when startup replay had to quarantine undecodable journal bytes.
	QuarantinedTail string `json:"quarantinedTail,omitempty"`

	CellP50MS      float64 `json:"cellP50ms"`
	CellP95MS      float64 `json:"cellP95ms"`
	CellP99MS      float64 `json:"cellP99ms"`
	JobP50MS       float64 `json:"jobP50ms"`
	JobP95MS       float64 `json:"jobP95ms"`
	JobP99MS       float64 `json:"jobP99ms"`
	QueueWaitP50MS float64 `json:"queueWaitP50ms"`
	QueueWaitP95MS float64 `json:"queueWaitP95ms"`
}

// Config sizes and parameterizes a Service.
type Config struct {
	// Workers is the worker-pool size (<=0: GOMAXPROCS).
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs; a full
	// queue sheds submissions with ErrQueueFull (<=0: 64).
	QueueCap int
	// JournalPath, when non-empty, is the snapshot.Store JSONL journal the
	// service records job state in and resumes from.
	JournalPath string
	// Params are the base experiment parameters; JobSpec overrides apply
	// on top. Zero value: experiments.DefaultParams().
	Params experiments.Params
	// Deadline bounds each cell's wall-clock time via the supervisor
	// (0 = unbounded).
	Deadline time.Duration
	// RetryAfter is the client backoff advertised on queue-full shed
	// responses (0: 1s). Overload sheds scale it up by the measured
	// queue delay.
	RetryAfter time.Duration
	// TenantWeights maps tenant names to DRR service weights. A tenant
	// explicitly configured with weight 0 is refused at submit; tenants
	// not named here get DefaultTenantWeight.
	TenantWeights map[string]int
	// DefaultTenantWeight is the weight of unconfigured tenants (<=0: 1).
	DefaultTenantWeight int
	// CoDelTarget is the acceptable standing queue delay; when the
	// measured delay stays above it for CoDelInterval, background
	// admissions shed (0: 100ms).
	CoDelTarget time.Duration
	// CoDelInterval is how long delay must stay above target before
	// shedding begins (0: 5×target).
	CoDelInterval time.Duration
	// Lookup resolves experiment names to runners. Nil:
	// experiments.LookupRun (the shared registry). Tests inject
	// synthetic experiments here.
	Lookup func(string) (func(experiments.Params) string, bool)
	// Telemetry is the metrics registry the service instruments itself
	// into (served on GET /metrics). Nil: telemetry.Default(), the
	// process-wide registry.
	Telemetry *telemetry.Registry
	// FS is the filesystem the journal lives on. Nil: the real
	// filesystem (fsio.OS). Durability tests inject an fsio.Faulty here
	// to drive the fsync/ENOSPC/crash failure paths.
	FS fsio.FS
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Params == (experiments.Params{}) {
		c.Params = experiments.DefaultParams()
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Lookup == nil {
		c.Lookup = experiments.LookupRun
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default()
	}
	if c.FS == nil {
		c.FS = fsio.OS{}
	}
	return c
}

// cellRecord is the journaled outcome of one completed cell.
type cellRecord struct {
	Experiment string `json:"experiment"`
	Output     string `json:"output"`
	Digest     string `json:"digest"`
}

// specRecord journals a job's identity: the client spec plus the resolved
// effective Params, so a daemon restarted with different defaults still
// resumes the job under the parameters it was admitted with.
type specRecord struct {
	ID          string             `json:"id"`
	Seq         int                `json:"seq"`
	Spec        JobSpec            `json:"spec"`
	Params      experiments.Params `json:"params"`
	SubmittedAt time.Time          `json:"submittedAt"`
}

// doneRecord journals a job's terminal state.
type doneRecord struct {
	Status Status `json:"status"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
	// Code is the typed failure code ("deadline_exceeded"), replayed
	// verbatim on resume.
	Code string `json:"code,omitempty"`
}

// tenantOf resolves a spec's tenant name.
func tenantOf(spec JobSpec) string {
	if t := strings.TrimSpace(spec.Tenant); t != "" {
		return t
	}
	return DefaultTenant
}

// job is the internal job state. All fields are guarded by Service.mu
// except immutable identity (id, seq, spec, params, tenant, class,
// expires).
type job struct {
	id     string
	seq    int
	spec   JobSpec
	params experiments.Params
	tenant string
	class  Class
	// expires is the absolute client deadline (zero = none): a job still
	// queued past it fails with deadline_exceeded instead of running.
	expires time.Time

	status    Status
	cells     []cellRecord // cells[0:done] are complete
	done      int
	resumed   int // cells answered from a previous daemon's journal
	cancel    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    string
	digest    string
	errMsg    string
	errCode   string
	events    []Event
	// traces caches lazily generated Chrome trace exports per policy
	// name; traces are deterministic in (params, policy), so the cache is
	// a pure memoization.
	traces map[string][]byte
}

// Service is the daemon core. Create with New, serve with Handler (see
// http.go) or drive directly via Submit/Job/Watch/Cancel, stop with
// Drain + Close.
type Service struct {
	cfg   Config
	store *snapshot.Store
	inst  *instruments

	mu        sync.Mutex
	workCond  *sync.Cond // queue became non-empty or service stopping
	eventCond *sync.Cond // an event was emitted somewhere, or stopping
	jobs      map[string]*job
	sched     *scheduler
	codel     *codel
	// idem maps idempotency keys to their jobs so client retries after a
	// 429/timeout replay the existing admission instead of enqueueing a
	// duplicate. Rebuilt from journaled specs on restart.
	idem map[string]*job
	// reserved counts admitted jobs journaling their spec before they
	// enter the queue, so QueueCap stays a hard bound under concurrent
	// submission.
	reserved  int
	nextSeq   int
	running   int
	draining  bool
	stopping  bool
	stopped   bool
	startedAt time.Time
	// degraded flips on the first refused journal append (fsync/ENOSPC
	// failure or lease fencing): the daemon goes read-only — submissions
	// are refused with ErrJournalFailing — because acking a write the
	// journal cannot persist would break the exactly-once contract.
	degraded    bool
	degradedErr string
	journalErrs int
	// epoch is the lease fencing token acquired at startup.
	epoch uint64
	// quarantine is the startup-replay tail classification, if any.
	quarantine string

	// Counters and live latency samples.
	submitted, completed, failed, cancelled, shed int
	shedOverload, deadlineExceeded, idemReplays   int
	resumedJobs, resumedCells                     int
	cellDur, jobDur, queueWait                    metrics.Sample

	wg sync.WaitGroup
}

// New builds a Service, replays its journal (when configured) and starts
// the worker pool. Incomplete journaled jobs are re-enqueued in their
// original submission order; terminal ones are served from memory.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		jobs:      make(map[string]*job),
		idem:      make(map[string]*job),
		sched:     newScheduler(cfg.TenantWeights, cfg.DefaultTenantWeight),
		codel:     newCodel(cfg.CoDelTarget, cfg.CoDelInterval),
		nextSeq:   1,
		startedAt: time.Now(),
	}
	s.workCond = sync.NewCond(&s.mu)
	s.eventCond = sync.NewCond(&s.mu)
	s.inst = newInstruments(cfg.Telemetry, s)
	if cfg.JournalPath != "" {
		st, err := snapshot.OpenFS(cfg.FS, cfg.JournalPath, Campaign)
		if err != nil {
			return nil, err
		}
		s.store = st
		if q, ok := st.Quarantined(); ok {
			s.quarantine = q.Reason
		}
		// Take the journal lease: this daemon's fencing token is newer
		// than any previous holder's, so a stale process still writing to
		// the same journal is fenced off at its next append.
		epoch, err := st.AcquireLease(fmt.Sprintf("fleetd/pid%d", os.Getpid()))
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("service: acquire journal lease: %w", err)
		}
		s.epoch = epoch
		if err := s.replay(); err != nil {
			st.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// jobKey helpers — journal cell keys sort lexically, and the fixed-width
// sequence keeps journal rewrites in submission order.
func specKey(seq int) string    { return fmt.Sprintf("job/%06d/spec", seq) }
func cellKey(seq, i int) string { return fmt.Sprintf("job/%06d/cell/%03d", seq, i) }
func doneKey(seq int) string    { return fmt.Sprintf("job/%06d/done", seq) }
func jobID(seq int) string      { return fmt.Sprintf("j%06d", seq) }

// digestOf returns the canonical FNV-64a digest of an output as fixed
// hex, using the snapshot hasher so service digests and campaign digests
// share one definition.
func digestOf(text string) string {
	h := snapshot.NewHasher()
	for i := 0; i < len(text); i++ {
		h.Byte(text[i])
	}
	return fmt.Sprintf("%016x", uint64(h.Sum()))
}

// replay rebuilds job state from the journal: terminal jobs become
// memory-resident views, incomplete jobs re-enter the queue at their
// journaled cells, and the sequence counter continues past the highest
// journaled job.
func (s *Service) replay() error {
	var seqs []int
	for _, key := range s.store.Keys() {
		var seq int
		if _, err := fmt.Sscanf(key, "job/%06d/spec", &seq); err == nil && strings.HasSuffix(key, "/spec") {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		var sr specRecord
		if !s.store.Get(specKey(seq), &sr) {
			continue
		}
		class, cerr := ParseClass(sr.Spec.Class)
		if cerr != nil {
			class = ClassForeground // journal from a newer daemon; serve, don't starve
		}
		j := &job{
			id:        sr.ID,
			seq:       seq,
			spec:      sr.Spec,
			params:    sr.Params,
			tenant:    tenantOf(sr.Spec),
			class:     class,
			status:    StatusQueued,
			cells:     make([]cellRecord, len(sr.Spec.Experiments)),
			submitted: sr.SubmittedAt,
		}
		if sr.Spec.DeadlineMS > 0 {
			// The deadline is relative to the original submission, so a
			// job that expired while the daemon was down fails at dequeue
			// instead of running stale after the restart.
			j.expires = sr.SubmittedAt.Add(time.Duration(sr.Spec.DeadlineMS) * time.Millisecond)
		}
		if sr.Spec.IdempotencyKey != "" {
			s.idem[sr.Spec.IdempotencyKey] = j
		}
		for i := range j.cells {
			var cr cellRecord
			if !s.store.Get(cellKey(seq, i), &cr) {
				break
			}
			j.cells[i] = cr
			j.done++
		}
		j.resumed = j.done
		var dr doneRecord
		if s.store.Get(doneKey(seq), &dr) {
			j.status = dr.Status
			j.digest = dr.Digest
			j.errMsg = dr.Err
			j.errCode = dr.Code
			j.finished = sr.SubmittedAt // true finish time was not journaled
			if dr.Status == StatusDone {
				j.assemble()
				if j.digest != "" && j.digest != dr.Digest {
					return fmt.Errorf("service: journal corrupt: job %s digest %s != journaled %s", j.id, j.digest, dr.Digest)
				}
			}
			s.emitLocked(j, Event{Phase: string(dr.Status), Digest: dr.Digest, Err: dr.Err, ErrCode: dr.Code})
		} else {
			s.resumedJobs++
			s.resumedCells += j.done
			s.sched.push(j)
			s.emitLocked(j, Event{Phase: "queued", Cells: len(j.cells), QueueDepth: s.sched.len()})
		}
		s.jobs[j.id] = j
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return nil
}

// assemble concatenates the completed cell outputs into the final result
// and stamps its digest. Caller must hold mu (or own the job exclusively).
func (j *job) assemble() {
	var b strings.Builder
	for _, c := range j.cells {
		b.WriteString(c.Output)
	}
	j.result = b.String()
	j.digest = digestOf(j.result)
}

// paramsFor resolves a spec's effective Params against the daemon base.
func (s *Service) paramsFor(spec JobSpec) experiments.Params {
	p := s.cfg.Params
	if spec.Scale > 0 {
		p.Scale = spec.Scale
	}
	if spec.Rounds > 0 {
		p.Rounds = spec.Rounds
	}
	if spec.Seed > 0 {
		p.Seed = spec.Seed
	}
	if spec.Devices > 0 {
		p.Devices = spec.Devices
	}
	p.Tiers = spec.Tiers
	p.Policies = spec.Policies
	p.Backend = spec.Backend
	if spec.Quick {
		p = p.Quick()
	}
	return p
}

// Validate checks a spec against the registry without admitting it.
func (s *Service) Validate(spec JobSpec) error {
	if len(spec.Experiments) == 0 {
		return fmt.Errorf("service: job needs at least one experiment")
	}
	if len(spec.Experiments) > MaxCells {
		return fmt.Errorf("service: job has %d experiments, max %d", len(spec.Experiments), MaxCells)
	}
	if spec.Scale < 0 || spec.Rounds < 0 {
		return fmt.Errorf("service: negative scale/rounds")
	}
	if spec.DeadlineMS < 0 {
		return fmt.Errorf("service: negative deadline_ms")
	}
	if spec.Devices < 0 {
		return fmt.Errorf("service: negative devices")
	}
	// Campaign parameters are rejected at admission, not when the cell
	// runs: a population job with a bad tier mix should 400, not burn a
	// queue slot to fail.
	if spec.Tiers != "" {
		if _, err := population.ParseTiers(spec.Tiers); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	if spec.Policies != "" {
		if _, err := population.ParsePolicies(spec.Policies); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	if _, ok := vmem.ParseBackend(spec.Backend); !ok {
		return fmt.Errorf("service: unknown swap backend %q (valid: %s)",
			spec.Backend, strings.Join(vmem.BackendNames(), " "))
	}
	if _, err := ParseClass(spec.Class); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if w, ok := s.cfg.TenantWeights[tenantOf(spec)]; ok && w <= 0 {
		return fmt.Errorf("%w: %q", ErrZeroWeight, tenantOf(spec))
	}
	for _, name := range spec.Experiments {
		if _, ok := s.cfg.Lookup(name); !ok {
			return fmt.Errorf("service: unknown experiment %q (valid: %s)",
				name, strings.Join(experiments.Names(), " "))
		}
	}
	return nil
}

// specFingerprint canonicalizes a spec for idempotency-key comparison.
func specFingerprint(spec JobSpec) string {
	b, _ := json.Marshal(spec)
	return digestOf(string(b))
}

// Submit validates and admits a job. It returns ErrDraining once a drain
// has begun, ErrQueueFull when the bounded queue is at capacity, and
// ErrOverloaded when the CoDel controller is shedding background work —
// the HTTP layer turns the latter two into 429 + Retry-After.
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	v, _, err := s.SubmitIdem(spec)
	return v, err
}

// SubmitIdem is Submit plus the idempotency verdict: replayed is true
// when the spec's idempotency key matched an already-admitted job and
// that job's view was returned instead of enqueueing a duplicate.
func (s *Service) SubmitIdem(spec JobSpec) (JobView, bool, error) {
	if err := s.Validate(spec); err != nil {
		return JobView{}, false, err
	}
	class, _ := ParseClass(spec.Class) // validated above
	now := time.Now()
	s.mu.Lock()
	// Idempotent replay runs before every admission gate: the job
	// already holds a slot (or finished), so a retry storm must get the
	// original answer even from a draining or overloaded daemon.
	if spec.IdempotencyKey != "" {
		if prev, ok := s.idem[spec.IdempotencyKey]; ok {
			if specFingerprint(prev.spec) != specFingerprint(spec) {
				s.mu.Unlock()
				return JobView{}, false, fmt.Errorf("%w: key %q", ErrIdempotencyMismatch, spec.IdempotencyKey)
			}
			s.idemReplays++
			view := s.viewLocked(prev)
			s.mu.Unlock()
			s.inst.idemReplay.Inc()
			return view, true, nil
		}
	}
	if s.draining || s.stopping {
		s.mu.Unlock()
		return JobView{}, false, ErrDraining
	}
	if s.degraded {
		reason := s.degradedErr
		s.mu.Unlock()
		return JobView{}, false, fmt.Errorf("%w: %s", ErrJournalFailing, reason)
	}
	// Feed the overload controller the age of the oldest queued
	// *background* job — the submit-side delay estimate that keeps
	// working when saturated workers stop producing dequeue
	// measurements. Foreground delay is deliberately excluded: strict
	// priority keeps fg sojourns near zero even when the bg queue is
	// seconds deep, and folding them in would reset the above-target
	// streak on every fg arrival. An empty bg queue is a zero-delay
	// observation — no standing queue means nothing to shed.
	if head, ok := s.sched.oldestHead(ClassBackground); ok {
		s.codel.observe(now.Sub(head), now)
	} else {
		s.codel.observe(0, now)
	}
	// The hard cap sheds every class — a daemon that cannot queue more
	// work is saturated, full stop. Below the cap, only background pays
	// for a standing queue.
	if s.sched.len()+s.reserved >= s.cfg.QueueCap {
		s.shed++
		s.mu.Unlock()
		s.inst.shed.Inc()
		return JobView{}, false, ErrQueueFull
	}
	if class == ClassBackground && s.codel.shedding {
		s.shedOverload++
		s.mu.Unlock()
		s.inst.shedOverload.Inc()
		return JobView{}, false, ErrOverloaded
	}
	seq := s.nextSeq
	s.nextSeq++
	j := &job{
		id:        jobID(seq),
		seq:       seq,
		spec:      spec,
		params:    s.paramsFor(spec),
		tenant:    tenantOf(spec),
		class:     class,
		status:    StatusQueued,
		cells:     make([]cellRecord, len(spec.Experiments)),
		submitted: now,
	}
	if spec.DeadlineMS > 0 {
		j.expires = now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	s.jobs[j.id] = j
	// Register the idempotency key before releasing the lock: a
	// concurrent retry with the same key must replay this admission, not
	// race past the map check into a duplicate enqueue.
	if spec.IdempotencyKey != "" {
		s.idem[spec.IdempotencyKey] = j
	}
	s.reserved++
	s.submitted++
	s.mu.Unlock()
	s.inst.submitted.Inc()

	// Journal the spec before the job becomes runnable, so a crash can
	// never leave cell records without the spec that owns them. A spec
	// that cannot be persisted is a job that was never admitted: the
	// submission is refused rather than acked into a queue the next
	// daemon will not know about.
	if s.store != nil {
		if err := s.put(specKey(seq), specRecord{
			ID: j.id, Seq: seq, Spec: spec, Params: j.params, SubmittedAt: j.submitted,
		}); err != nil {
			s.mu.Lock()
			s.reserved--
			delete(s.jobs, j.id)
			if spec.IdempotencyKey != "" && s.idem[spec.IdempotencyKey] == j {
				delete(s.idem, spec.IdempotencyKey)
			}
			reason := s.degradedErr
			s.mu.Unlock()
			return JobView{}, false, fmt.Errorf("%w: %s", ErrJournalFailing, reason)
		}
	}

	s.mu.Lock()
	s.reserved--
	// A drain that began while the spec was journaling does not evict the
	// job: it was admitted first, stays journaled, and the next daemon
	// resumes it. A concurrent Cancel may already have finished it.
	if j.status == StatusQueued {
		s.sched.push(j)
		s.emitLocked(j, Event{Phase: "queued", Cells: len(j.cells), QueueDepth: s.sched.len()})
		s.workCond.Signal()
	}
	view := s.viewLocked(j)
	s.mu.Unlock()
	return view, false, nil
}

// worker pulls jobs off the fair scheduler until the service stops.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.sched.len() == 0 && !s.stopping {
			s.workCond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := s.sched.pop()
		if j == nil || j.status != StatusQueued { // cancelled while queued
			s.mu.Unlock()
			continue
		}
		now := time.Now()
		// Deadline propagation, queue stage: a job whose client deadline
		// lapsed while queued fails typed instead of running stale.
		if !j.expires.IsZero() && now.After(j.expires) {
			j.started = now
			s.running++ // finishLocked undoes this; keeps the gauge honest
			s.expireLocked(j)
			s.mu.Unlock()
			s.putDone(j)
			continue
		}
		j.status = StatusRunning
		j.started = now
		wait := j.started.Sub(j.submitted)
		if j.class == ClassBackground {
			// Only background sojourns feed the shedder; see SubmitIdem.
			s.codel.observe(wait, now)
		}
		s.queueWait.Add(float64(wait) / float64(time.Millisecond))
		s.inst.queueWait.Observe(float64(wait) / float64(time.Millisecond))
		s.running++
		s.emitLocked(j, Event{Phase: "started", Cell: j.done, Cells: len(j.cells)})
		s.mu.Unlock()
		s.runJob(j)
	}
}

// expireLocked fails a job with the typed deadline_exceeded code. Caller
// holds mu, has accounted the job as running, and calls putDone after
// unlocking.
func (s *Service) expireLocked(j *job) {
	j.errCode = string(CodeDeadlineExceeded)
	s.deadlineExceeded++
	s.inst.deadlineExceeded.Inc()
	s.finishLocked(j, StatusFailed, fmt.Sprintf(
		"deadline exceeded: client deadline %s lapsed %s before the job could run",
		time.Duration(j.spec.DeadlineMS)*time.Millisecond,
		time.Since(j.expires).Round(time.Millisecond)))
}

// runJob executes (or resumes) one job cell by cell. Each cell runs under
// the campaign supervisor — a panicking experiment fails the job with its
// stack attached instead of killing the daemon, and a cell exceeding
// cfg.Deadline is abandoned. Completed cells journal immediately; between
// cells the worker honours cancellation and drain.
func (s *Service) runJob(j *job) {
	basePol := runner.Policy{Deadline: s.cfg.Deadline}
	for {
		s.mu.Lock()
		if j.cancel {
			s.finishLocked(j, StatusCancelled, "cancelled by client")
			s.mu.Unlock()
			s.putDone(j)
			return
		}
		// Deadline propagation, run stage: the deadline is end-to-end, so
		// a multi-cell job re-checks at every cell boundary.
		if !j.expires.IsZero() && time.Now().After(j.expires) && j.done < len(j.cells) {
			s.expireLocked(j)
			s.mu.Unlock()
			s.putDone(j)
			return
		}
		if s.draining && j.done < len(j.cells) {
			// Drain checkpoint: the finished cells are journaled; hand the
			// job back to the queue for the next daemon. Workers stop once
			// stopping is set, so nothing here runs it again.
			j.status = StatusQueued
			s.running--
			s.sched.push(j)
			s.emitLocked(j, Event{Phase: "checkpointed", Cell: j.done, Cells: len(j.cells)})
			s.mu.Unlock()
			return
		}
		if j.done == len(j.cells) {
			j.assemble()
			s.finishLocked(j, StatusDone, "")
			s.mu.Unlock()
			s.putDone(j)
			return
		}
		i := j.done
		s.mu.Unlock()

		name := j.spec.Experiments[i]
		start := time.Now()
		// The remaining client budget bounds the cell's wall clock too
		// (worker-context cancellation via the supervisor's watchdog), so
		// one wedged cell cannot run past the job's deadline.
		pol := basePol
		if !j.expires.IsZero() {
			remaining := time.Until(j.expires)
			if remaining < time.Millisecond {
				remaining = time.Millisecond // expiry raced the boundary check; let the watchdog fire
			}
			if pol.Deadline == 0 || remaining < pol.Deadline {
				pol.Deadline = remaining
			}
		}
		var cr cellRecord
		cached := s.store != nil && s.store.Get(cellKey(j.seq, i), &cr)
		if !cached {
			run, ok := s.cfg.Lookup(name)
			if !ok { // validated at submit; registry cannot shrink, but be safe
				s.mu.Lock()
				s.finishLocked(j, StatusFailed, fmt.Sprintf("unknown experiment %q", name))
				s.mu.Unlock()
				s.putDone(j)
				return
			}
			outs, errs := runner.SupervisedMap([]string{name}, pol,
				func(_ int, _ string) (string, error) { return run(j.params), nil })
			if len(errs) > 0 {
				le := errs[0]
				msg := fmt.Sprintf("cell %d (%s): %v", i, name, le.Err)
				if le.Stack != "" {
					msg += "\n" + le.Stack
				}
				s.mu.Lock()
				s.finishLocked(j, StatusFailed, msg)
				s.mu.Unlock()
				s.putDone(j)
				return
			}
			cr = cellRecord{Experiment: name, Output: outs[0], Digest: digestOf(outs[0])}
			if s.store != nil {
				if err := s.put(cellKey(j.seq, i), cr); err != nil {
					// The cell ran but its record could not be made
					// durable. Acking it anyway would hand the client a
					// result the next daemon would re-execute; fail the
					// job honestly instead (the daemon is now degraded
					// and read-only — see put).
					s.mu.Lock()
					s.finishLocked(j, StatusFailed,
						fmt.Sprintf("cell %d (%s): journal append refused: %v", i, name, err))
					s.mu.Unlock()
					s.putDone(j)
					return
				}
			}
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if !cached {
			s.inst.cellRun.Observe(ms)
			s.inst.busyMS.Add(int64(ms))
		}

		s.mu.Lock()
		j.cells[i] = cr
		j.done++
		if !cached {
			s.cellDur.Add(ms)
		}
		s.emitLocked(j, Event{
			Phase: "cell", Cell: i + 1, Cells: len(j.cells),
			Experiment: name, Digest: cr.Digest, Cached: cached, MS: ms,
			CellP50MS: s.cellDur.Percentile(50), CellP95MS: s.cellDur.Percentile(95),
		})
		s.mu.Unlock()
	}
}

// putDone journals a terminal record. Called outside mu — the journal
// fsync must not serialize the API — by the goroutine that just moved the
// job to a terminal state (terminal fields are immutable afterwards). A
// crash between the terminal event and this append is harmless: the next
// daemon re-enqueues the job, answers every cell from the journal, and
// re-writes an identical terminal record.
func (s *Service) putDone(j *job) {
	if s.store != nil {
		// A refused terminal append already degraded the daemon inside
		// put; the in-memory terminal state stands and the next daemon
		// reconstructs an identical record from the journaled cells.
		_ = s.put(doneKey(j.seq), doneRecord{Status: j.status, Digest: j.digest, Err: j.errMsg, Code: j.errCode})
	}
}

// finishLocked moves a running job to a terminal state and emits the
// terminal event. Caller holds mu and must call putDone after unlocking.
func (s *Service) finishLocked(j *job, st Status, errMsg string) {
	j.status = st
	j.errMsg = errMsg
	j.finished = time.Now()
	s.running--
	ms := float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	ev := Event{Phase: string(st), Cell: j.done, Cells: len(j.cells), MS: ms}
	switch st {
	case StatusDone:
		s.completed++
		s.jobDur.Add(float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond))
		s.inst.done.Inc()
		s.inst.jobRun.Observe(ms)
		ev.Digest = j.digest
	case StatusFailed:
		s.failed++
		s.inst.failed.Inc()
		ev.Err = errMsg
		ev.ErrCode = j.errCode
	case StatusCancelled:
		s.cancelled++
		s.inst.cancelled.Inc()
		ev.Err = errMsg
	}
	s.emitLocked(j, ev)
}

// emitLocked appends an event to the job's history and wakes every
// subscriber. Caller holds mu.
func (s *Service) emitLocked(j *job, ev Event) {
	ev.Seq = len(j.events) + 1
	ev.Time = time.Now()
	ev.Job = j.id
	j.events = append(j.events, ev)
	s.eventCond.Broadcast()
}

// Cancel requests cancellation. A queued job cancels immediately; a
// running job cancels at its next cell boundary (Go cannot preempt a
// running experiment). Cancelling a terminal job is a no-op. The bool
// reports whether the job exists.
func (s *Service) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	journal := false
	switch j.status {
	case StatusQueued:
		// Removing the job from its virtual queue releases the admission
		// slot immediately — a client that fills the queue, cancels, and
		// resubmits must not be shed on a slot held by a tombstone.
		s.sched.remove(j)
		j.cancel = true
		j.status = StatusCancelled
		j.errMsg = "cancelled by client"
		j.finished = time.Now()
		s.cancelled++
		s.inst.cancelled.Inc()
		s.emitLocked(j, Event{Phase: string(StatusCancelled), Cells: len(j.cells), Err: j.errMsg})
		journal = true
	case StatusRunning:
		j.cancel = true
	}
	view := s.viewLocked(j)
	s.mu.Unlock()
	if journal {
		s.putDone(j)
	}
	return view, true
}

// Job returns a snapshot of one job.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j), true
}

// Result returns a done job's assembled output.
func (s *Service) Result(id string) (string, JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", JobView{}, false
	}
	return j.result, s.viewLocked(j), true
}

// Jobs lists every known job in submission order.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.viewLocked(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func (s *Service) viewLocked(j *job) JobView {
	v := JobView{
		ID:           j.id,
		Spec:         j.spec,
		Params:       j.params,
		Status:       j.status,
		Cells:        len(j.cells),
		CellsDone:    j.done,
		SubmittedAt:  j.submitted,
		Digest:       j.digest,
		ResumedCells: j.resumed,
		Err:          j.errMsg,
		ErrCode:      j.errCode,
		Tenant:       j.tenant,
		Class:        j.class,
	}
	if !j.expires.IsZero() {
		t := j.expires
		v.DeadlineAt = &t
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
		v.QueueWaitMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		if !j.started.IsZero() {
			v.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if j.status == StatusQueued {
		v.QueuePos = s.sched.pos(j)
	}
	return v
}

// Stats snapshots the service-wide counters and latency percentiles.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Submitted:    s.submitted,
		Completed:    s.completed,
		Failed:       s.failed,
		Cancelled:    s.cancelled,
		Shed:         s.shed,
		ResumedJobs:  s.resumedJobs,
		ResumedCells: s.resumedCells,
		QueueDepth:   s.sched.len(),
		Running:      s.running,
		Workers:      s.cfg.Workers,
		QueueCap:     s.cfg.QueueCap,
		Draining:     s.draining,

		QueueDepthFG:     s.sched.lenClass(ClassForeground),
		QueueDepthBG:     s.sched.lenClass(ClassBackground),
		ShedOverload:     s.shedOverload,
		OverloadShedding: s.codel.shedding,
		OverloadDelayMS:  float64(s.codel.lastDelay) / float64(time.Millisecond),
		DeadlineExceeded: s.deadlineExceeded,
		IdemReplays:      s.idemReplays,

		Degraded:        s.degraded,
		DegradedReason:  s.degradedErr,
		Epoch:           s.epoch,
		JournalErrors:   s.journalErrs,
		QuarantinedTail: s.quarantine,

		CellP50MS:      s.cellDur.Percentile(50),
		CellP95MS:      s.cellDur.Percentile(95),
		CellP99MS:      s.cellDur.Percentile(99),
		JobP50MS:       s.jobDur.Percentile(50),
		JobP95MS:       s.jobDur.Percentile(95),
		JobP99MS:       s.jobDur.Percentile(99),
		QueueWaitP50MS: s.queueWait.Percentile(50),
		QueueWaitP95MS: s.queueWait.Percentile(95),
	}
}

// RetryAfter is the backoff the HTTP layer advertises on shed responses.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// ShedRetryAfter is the overload-shed backoff: the configured base
// scaled up to the measured standing queue delay, so clients back off in
// proportion to how far behind the daemon actually is.
func (s *Service) ShedRetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.codel.retryAfter(s.cfg.RetryAfter)
}

// Draining reports whether a drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Watch replays a job's event history and then follows it live, calling
// fn for each event in order. It returns when the job reaches a terminal
// state (after delivering the terminal event), when the service stops
// (after delivering everything emitted so far), when ctx is done, or when
// fn returns an error (which is passed through).
func (s *Service) Watch(ctx context.Context, id string, fn func(Event) error) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknown
	}
	// Wake this watcher when the client goes away.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.eventCond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	idx := 0
	for {
		for idx < len(j.events) {
			ev := j.events[idx]
			idx++
			s.mu.Unlock()
			if err := fn(ev); err != nil {
				return err
			}
			if ev.Phase == "checkpointed" {
				// Drain interrupted the job; nothing more will be emitted
				// by this process.
				return nil
			}
			s.mu.Lock()
		}
		if j.status.Terminal() || s.stopped || ctx.Err() != nil {
			s.mu.Unlock()
			return nil
		}
		s.eventCond.Wait()
	}
}

// Drain stops admission (Submit returns ErrDraining), lets each worker
// finish its current cell, checkpoints unfinished jobs back to the queued
// state, waits for the pool to park, and flushes the journal. It is
// idempotent and safe to call from a signal handler goroutine.
func (s *Service) Drain() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.stopping = true
	s.workCond.Broadcast()
	s.eventCond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.stopped = true
	s.eventCond.Broadcast()
	s.mu.Unlock()
	if s.store != nil {
		s.store.Flush()
	}
}

// Close drains and closes the journal. The Service remains readable
// (Job/Result/Jobs) but admits nothing.
func (s *Service) Close() error {
	s.Drain()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}
