// The HTTP face of the service: a small JSON API over the daemon core,
// versioned under /v1.
//
//	POST   /v1/jobs              submit a JobSpec          → 202 JobView
//	GET    /v1/jobs              list jobs                 → 200 []JobView
//	GET    /v1/jobs/{id}         job status                → 200 JobView
//	GET    /v1/jobs/{id}/stream  NDJSON event stream       → 200 events…
//	GET    /v1/jobs/{id}/result  assembled result          → 200 text/plain
//	GET    /v1/jobs/{id}/trace   Chrome trace-event JSON   → 200 (?policy=)
//	POST   /v1/jobs/{id}/cancel  cancel (also DELETE /v1/jobs/{id})
//	GET    /v1/healthz           build stamp + liveness    → 200 / 503
//	GET    /v1/stats             counters and percentiles  → 200 Stats
//	GET    /metrics              Prometheus text exposition
//
// Every error is a JSON envelope {"error":{"code","message",…}} with a
// typed code (see ErrorCode). Admission control stays visible on submit:
// a full queue sheds with 429 queue_full plus Retry-After (header and
// retry_after_ms), an overloaded daemon sheds *background* submissions
// with 429 overload_shed (Retry-After scaled by the measured queue
// delay), and a draining daemon refuses with 503. Submits may carry
// tenant/class fair-queueing identity, a deadline_ms queue expiry, and
// an idempotency key (spec field or Idempotency-Key header) — a replayed
// key returns the original job with 200 + X-Fleetd-Idempotent-Replay
// instead of a duplicate 202.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fleetsim/internal/buildinfo"
)

// Health is the /v1/healthz response body.
type Health struct {
	Status   string         `json:"status"` // "ok" or "draining"
	Build    buildinfo.Info `json:"build"`
	UptimeMS float64        `json:"uptimeMs"`
	Stats    Stats          `json:"stats"`
}

// ErrorCode is the typed, machine-matchable error identity of the v1 API.
// Clients switch on codes, not message text or bare HTTP status.
type ErrorCode string

// The v1 error codes.
const (
	// CodeBadRequest is a malformed or invalid request body/parameter.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeQueueFull means admission was shed on the hard queue bound —
	// the whole daemon is saturated (429; honor retry_after_ms).
	CodeQueueFull ErrorCode = "queue_full"
	// CodeOverloadShed means a background submission was shed by the
	// CoDel controller: queue delay has been above target for a full
	// interval, and background absorbs the squeeze first (429;
	// retry_after_ms scales with the measured delay). Foreground
	// submissions never receive this code.
	CodeOverloadShed ErrorCode = "overload_shed"
	// CodeInvalidTenant means the tenant is configured with weight zero:
	// the scheduler would never serve it (400).
	CodeInvalidTenant ErrorCode = "invalid_tenant"
	// CodeIdempotencyMismatch means the idempotency key was already used
	// with a different spec (409).
	CodeIdempotencyMismatch ErrorCode = "idempotency_mismatch"
	// CodeDeadlineExceeded is the typed failure code of jobs whose
	// client deadline lapsed before they could run — it appears in
	// JobView.errCode and terminal events, not as a submit error.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeDraining means the daemon is shutting down (503; resubmit to
	// its successor or honor retry_after_ms).
	CodeDraining ErrorCode = "draining"
	// CodeJournalFailing means the daemon is in degraded read-only mode:
	// its journal stopped accepting durable appends (failed fsync,
	// ENOSPC, or it was fenced by a newer daemon), so it refuses work it
	// could not persist (503; submit to a healthy daemon).
	CodeJournalFailing ErrorCode = "journal_failing"
	// CodeNotDone means the requested artifact needs a done job (409).
	CodeNotDone ErrorCode = "not_done"
	// CodeTerminal means the action is void on a finished job (409).
	CodeTerminal ErrorCode = "terminal"
	// CodeNotFound means no such job (404).
	CodeNotFound ErrorCode = "not_found"
)

// APIError is the error payload of the v1 envelope.
type APIError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// RetryAfterMS advises a client backoff (codes queue_full, draining).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Status carries the job's current status where it explains the error
	// (codes not_done, terminal).
	Status Status `json:"status,omitempty"`
}

// errorBody is the envelope: {"error":{...}}.
type errorBody struct {
	Error APIError `json:"error"`
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.cfg.Telemetry.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError emits the v1 envelope, mirroring RetryAfterMS into the
// standard Retry-After header (whole seconds, rounded up) for plain HTTP
// clients.
func writeError(w http.ResponseWriter, httpCode int, e APIError) {
	if e.RetryAfterMS > 0 {
		sec := (e.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(sec, 10))
	}
	writeJSON(w, httpCode, errorBody{Error: e})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	// The standard Idempotency-Key header is an alias for the spec field.
	if spec.IdempotencyKey == "" {
		spec.IdempotencyKey = r.Header.Get("Idempotency-Key")
	}
	view, replayed, err := s.SubmitIdem(spec)
	retryMS := int64(s.RetryAfter() / time.Millisecond)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, APIError{Code: CodeQueueFull, Message: err.Error(), RetryAfterMS: retryMS})
	case errors.Is(err, ErrOverloaded):
		// Retry-After scales with the measured standing delay: the
		// deeper the queue, the longer background clients stay away.
		shedMS := int64(s.ShedRetryAfter() / time.Millisecond)
		writeError(w, http.StatusTooManyRequests, APIError{Code: CodeOverloadShed, Message: err.Error(), RetryAfterMS: shedMS})
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, APIError{Code: CodeDraining, Message: err.Error(), RetryAfterMS: retryMS})
	case errors.Is(err, ErrJournalFailing):
		// No Retry-After: a failing disk does not heal on a timer; the
		// client should go elsewhere.
		writeError(w, http.StatusServiceUnavailable, APIError{Code: CodeJournalFailing, Message: err.Error()})
	case errors.Is(err, ErrZeroWeight):
		writeError(w, http.StatusBadRequest, APIError{Code: CodeInvalidTenant, Message: err.Error()})
	case errors.Is(err, ErrIdempotencyMismatch):
		writeError(w, http.StatusConflict, APIError{Code: CodeIdempotencyMismatch, Message: err.Error()})
	case err != nil:
		writeError(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: err.Error()})
	case replayed:
		// The admission already happened; tell the client it is looking
		// at the original job, not a new one.
		w.Header().Set("X-Fleetd-Idempotent-Replay", "true")
		writeJSON(w, http.StatusOK, view)
	default:
		writeJSON(w, http.StatusAccepted, view)
	}
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	text, view, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	if view.Status != StatusDone {
		writeError(w, http.StatusConflict, APIError{Code: CodeNotDone, Message: "job not done", Status: view.Status})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Fleetd-Digest", view.Digest)
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(text))
}

// handleTrace serves a completed job's Chrome trace-event export
// (Perfetto-loadable). ?policy=Android|Marvin|Fleet selects the simulated
// policy; default Fleet.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := s.TraceJSON(id, r.URL.Query().Get("policy"))
	switch {
	case errors.Is(err, ErrUnknown):
		writeError(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: "no such job"})
		return
	case errors.Is(err, ErrNotDone):
		view, _ := s.Job(id)
		writeError(w, http.StatusConflict, APIError{Code: CodeNotDone, Message: "job not done", Status: view.Status})
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`-trace.json"`)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	// Cancelling an already-finished or -failed job had no effect; tell
	// the client so (repeat cancels stay idempotent 200s).
	if view.Status.Terminal() && view.Status != StatusCancelled {
		writeError(w, http.StatusConflict, APIError{Code: CodeTerminal, Message: "job already " + string(view.Status), Status: view.Status})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleStream serves the NDJSON event stream: the job's full history
// first, then live events as they happen, one JSON object per line,
// flushed per event. The stream ends at the job's terminal event, at a
// drain checkpoint, or when the client disconnects.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	s.Watch(r.Context(), id, func(ev Event) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{
		Status:   "ok",
		Build:    buildinfo.Read(),
		UptimeMS: float64(time.Since(s.startedAt)) / float64(time.Millisecond),
		Stats:    s.Stats(),
	}
	code := http.StatusOK
	if h.Stats.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	if h.Stats.Degraded {
		h.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
