package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashmc/internal/depot"
)

// TestWorkerMux smoke-tests the worker's HTTP surface: readiness,
// metrics, and the /task error contract for requests that never reach
// a real executor run.
func TestWorkerMux(t *testing.T) {
	store, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newWorkerMux(store, "127.0.0.1:test"))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	for _, want := range []string{"# HELP", "fleet_worker_tasks_total"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics exposition lacks %q:\n%s", want, raw)
		}
	}

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/task", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed task body: %d, want 400", code)
	}
	if code := post(`{"format":"task/v0"}`); code != http.StatusBadRequest {
		t.Fatalf("wrong descriptor format: %d, want 400", code)
	}
	// Well-formed descriptor whose bundle is nowhere: transient 500,
	// so the dispatcher retries elsewhere instead of giving up.
	valid := `{"format":"task/v2","kind":"glob","src_hash":"0000","spec_opt":"o",
		"output":{"kind":"reports/v3","source":"s","checker":"c","version":"v","options":"o"},
		"checker":"c","checker_version":"v"}`
	if code := post(valid); code != http.StatusInternalServerError {
		t.Fatalf("missing bundle: %d, want 500", code)
	}
	// The same descriptor in the pre-trace-fields task/v1 format is
	// refused: only the current format is accepted.
	if code := post(strings.Replace(valid, "task/v2", "task/v1", 1)); code != http.StatusBadRequest {
		t.Fatalf("well-formed task/v1 descriptor: %d, want 400", code)
	}
}

// TestWorkerRequestID: the worker reuses the dispatcher's
// X-Request-Id (so fleet logs correlate to the originating /check) and
// mints one for direct callers.
func TestWorkerRequestID(t *testing.T) {
	store, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newWorkerMux(store, "127.0.0.1:test"))
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "req-from-leader")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-from-leader" {
		t.Fatalf("X-Request-Id = %q, want the inbound id echoed", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "wreq-") {
		t.Fatalf("minted X-Request-Id = %q, want wreq- prefix", got)
	}
}
