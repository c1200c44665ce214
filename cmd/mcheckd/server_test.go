package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashmc/internal/depot"
)

// fixture has one hardware handler that reads the MISCBUS data buffer
// twice but only waits once: exactly one buffer_race report.
const fixture = `#include "flash-includes.h"
void h_local_get(void) {
    unsigned a;
    unsigned b;
    MISCBUS_READ_DB(a, b);
    WAIT_FOR_DB_FULL(a);
    MISCBUS_READ_DB(a, b);
}
`

func postCheck(t *testing.T, ts *httptest.Server, body string) (checkResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /check: %s\n%s", resp.Status, raw)
	}
	var cr checkResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, raw)
	}
	return cr, raw
}

func TestServerEndToEnd(t *testing.T) {
	store, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	body := `{"files": {"proto.c": ` + mustQuote(fixture) + `}, "triage": true}`

	// Cold: the report is found and everything misses the cache.
	cold, coldRaw := postCheck(t, ts, body)
	// The buffer_race checker runs the wait_for_db machine; reports
	// carry the machine name, as in mcheck's output.
	var race []reportJSON
	for _, r := range cold.Reports {
		if r.Checker == "wait_for_db" {
			race = append(race, r)
		}
	}
	if len(race) != 1 {
		t.Fatalf("want 1 wait_for_db report, got %d\n%s", len(race), coldRaw)
	}
	if race[0].Fn != "h_local_get" || race[0].Line == 0 {
		t.Fatalf("report lacks location: %+v", race[0])
	}
	if race[0].Confidence == "" {
		t.Fatalf("triage requested but report unranked: %+v", race[0])
	}
	if cold.Stats.CacheMisses == 0 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold stats: %+v", cold.Stats)
	}

	// Warm: identical request, zero misses, byte-identical reports.
	warm, warmRaw := postCheck(t, ts, body)
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times (reanalyzed %v)", warm.Stats.CacheMisses, warm.Stats.Reanalyzed)
	}
	if warm.Stats.CacheHits == 0 {
		t.Fatal("warm run recorded no hits")
	}
	coldReports, _ := json.Marshal(cold.Reports)
	warmReports, _ := json.Marshal(warm.Reports)
	if !bytes.Equal(coldReports, warmReports) {
		t.Fatalf("warm reports differ:\ncold %s\nwarm %s", coldRaw, warmRaw)
	}

	// Healthz.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", hr.Status)
	}

	// Metrics reflect the two requests and the warm hit traffic.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metrics := string(mraw)
	for _, want := range []string{
		"mcheckd_requests_total 2",
		"mcheckd_cache_hits_total",
		"mcheckd_cache_hit_rate",
		"mcheckd_queue_depth_max",
		"# TYPE mcheckd_request_seconds_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "mcheckd_cache_misses_total 0\n") {
		t.Error("metrics claim zero misses after a cold run")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	store, _ := depot.Open("")
	ts := httptest.NewServer(newServer(store, 1))
	defer ts.Close()

	get, err := http.Get(ts.URL + "/check")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /check: %s", get.Status)
	}

	for name, body := range map[string]string{
		"bad json": `{`,
		"no files": `{"files": {}}`,
		"no roots": `{"files": {"notes.h": "int x;"}}`,
	} {
		resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %s, want 400", name, resp.Status)
		}
	}

	// A parse error is reported, not checked.
	resp, err := http.Post(ts.URL+"/check", "application/json",
		strings.NewReader(`{"files": {"broken.c": "void f( {"}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("parse error: got %s, want 422\n%s", resp.Status, raw)
	}
	var cr checkResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.ParseErrors) == 0 {
		t.Fatalf("no parse_errors in %s", raw)
	}
}

// TestServerSurvivesDeepNesting: a body nested far past the parser's
// bound is refused as a parse error instead of overflowing the stack
// and killing the daemon, and the same server goes on answering
// ordinary requests.
func TestServerSurvivesDeepNesting(t *testing.T) {
	store, _ := depot.Open("")
	ts := httptest.NewServer(newServer(store, 1))
	defer ts.Close()

	const depth = 100000
	deep := "void h_deep(void) { int x; x = " + strings.Repeat("(", depth) + "1" +
		strings.Repeat(")", depth) + "; }\n"
	resp, err := http.Post(ts.URL+"/check", "application/json",
		strings.NewReader(`{"files": {"deep.c": `+mustQuote(deep)+`}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deep nesting: got %s, want 422\n%.500s", resp.Status, raw)
	}
	var cr checkResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.ParseErrors) == 0 || !strings.Contains(cr.ParseErrors[0], "nested deeper than") {
		t.Fatalf("parse_errors %q, want a nesting error first", cr.ParseErrors)
	}

	ok, raw := postCheck(t, ts, `{"files": {"proto.c": `+mustQuote(fixture)+`}}`)
	if len(ok.Reports) == 0 {
		t.Fatalf("ordinary check after the deep one found nothing:\n%s", raw)
	}
}

func mustQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
