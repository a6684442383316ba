package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fleetsim/internal/experiments"
	"fleetsim/internal/telemetry"
	"fleetsim/internal/trace"
)

// decodeEnvelope reads and closes resp, returning the v1 error envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error response is not the v1 envelope: %v", err)
	}
	if eb.Error.Code == "" {
		t.Fatalf("envelope has no code: %+v", eb)
	}
	return eb.Error
}

// TestV1ErrorEnvelope drives every error path of the v1 API and checks
// each returns the typed envelope with the right code.
func TestV1ErrorEnvelope(t *testing.T) {
	s, srv := newAPI(t, Config{Workers: 1})

	// bad_request: malformed JSON, empty spec, unknown experiment.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Fatalf("bad JSON: %d %+v", resp.StatusCode, e)
	}
	for _, spec := range []JobSpec{{}, {Experiments: []string{"nope"}}} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Fatalf("invalid spec %+v: %d %+v", spec, resp.StatusCode, e)
		}
	}

	// not_found on every id-bearing route (DELETE included).
	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/result",
		"/v1/jobs/j999999/stream", "/v1/jobs/j999999/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
			t.Fatalf("%s: %d %+v, want 404 not_found", path, resp.StatusCode, e)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/j999999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
		t.Fatalf("DELETE unknown: %d %+v", resp.StatusCode, e)
	}

	// terminal: cancelling a done job.
	_, view := postJob(t, srv, JobSpec{Experiments: []string{"a"}})
	await(t, s, view.ID)
	resp, err = http.Post(srv.URL+"/v1/jobs/"+view.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusConflict || e.Code != CodeTerminal || e.Status != StatusDone {
		t.Fatalf("cancel done job: %d %+v, want 409 terminal/done", resp.StatusCode, e)
	}
}

// TestV1QueueFullAndDrainingEnvelope checks the shed and drain paths
// advertise machine-readable backoff in both header and envelope.
func TestV1QueueFullAndDrainingEnvelope(t *testing.T) {
	block, started, release := blocker()
	s, srv := newAPI(t, Config{
		Workers:    1,
		QueueCap:   1,
		RetryAfter: 1500 * time.Millisecond,
		Lookup:     fakeLookup(map[string]func(experiments.Params) string{"block": block, "a": instant("A")}),
	})
	defer close(release)
	postJob(t, srv, JobSpec{Experiments: []string{"block"}})
	<-started
	postJob(t, srv, JobSpec{Experiments: []string{"a"}})

	resp, _ := postJob(t, srv, JobSpec{Experiments: []string{"a"}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" { // 1500ms rounds up
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	body, _ := json.Marshal(JobSpec{Experiments: []string{"a"}})
	resp2, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp2); e.Code != CodeQueueFull || e.RetryAfterMS != 1500 {
		t.Fatalf("queue-full envelope = %+v, want queue_full retry_after_ms=1500", e)
	}

	release <- struct{}{}
	s.Drain()
	resp3, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp3); resp3.StatusCode != http.StatusServiceUnavailable || e.Code != CodeDraining || e.RetryAfterMS != 1500 {
		t.Fatalf("draining envelope: %d %+v, want 503 draining", resp3.StatusCode, e)
	}
}

// TestV1MetricsEndpoint checks GET /metrics serves parseable Prometheus
// text covering the queue, worker and job instruments after work ran.
func TestV1MetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, srv := newAPI(t, Config{Workers: 2, Telemetry: reg})
	_, view := postJob(t, srv, JobSpec{Experiments: []string{"a", "b"}})
	await(t, s, view.ID)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not parseable exposition: %v", err)
	}
	checks := map[string]float64{
		"fleetd_jobs_submitted_total":          1,
		`fleetd_jobs_total{state="done"}`:      1,
		"fleetd_workers":                       2,
		"fleetd_cell_run_ms_count":             2,
		"fleetd_job_run_ms_count":              1,
		"fleetd_queue_wait_ms_count":           1,
		"fleetd_queue_depth":                   0,
		"fleetd_jobs_running":                  0,
		`fleetd_jobs_total{state="failed"}`:    0,
		"fleetd_jobs_shed_total":               0,
		`fleetd_cell_run_ms_bucket{le="+Inf"}`: 2,
	}
	for k, v := range checks {
		got, ok := samples[k]
		if !ok {
			t.Fatalf("sample %q missing from /metrics", k)
		}
		if got != v {
			t.Fatalf("sample %q = %v, want %v", k, got, v)
		}
	}
}

// TestV1TraceEndpoint exercises the trace export: 409 not_done while the
// job runs, then a valid, cached, deterministic Chrome trace once done,
// and 400 bad_request for an unknown policy.
func TestV1TraceEndpoint(t *testing.T) {
	block, started, release := blocker()
	s, srv := newAPI(t, Config{
		Workers: 1,
		Lookup:  fakeLookup(map[string]func(experiments.Params) string{"block": block}),
	})
	defer close(release)
	// Big scale divisor keeps the canonical trace scenario cheap in tests.
	_, view := postJob(t, srv, JobSpec{Experiments: []string{"block"}, Scale: 256, Quick: true})
	<-started

	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusConflict || e.Code != CodeNotDone {
		t.Fatalf("trace before done: %d %+v, want 409 not_done", resp.StatusCode, e)
	}

	release <- struct{}{}
	await(t, s, view.ID)

	get := func(q string) ([]byte, *http.Response) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return data, resp
	}
	data, resp2 := get("")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp2.StatusCode, data)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content-type = %q", ct)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("served trace is not valid Chrome trace-event JSON: %v", err)
	}
	again, _ := get("")
	if !bytes.Equal(data, again) {
		t.Fatal("repeated trace fetches are not byte-identical")
	}
	other, resp3 := get("?policy=Android")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("trace policy=Android: %d", resp3.StatusCode)
	}
	if err := trace.ValidateChrome(other); err != nil {
		t.Fatalf("Android-policy trace invalid: %v", err)
	}

	resp4, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/trace?policy=bogus")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp4); resp4.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Fatalf("bogus policy: %d %+v, want 400 bad_request", resp4.StatusCode, e)
	}
}
