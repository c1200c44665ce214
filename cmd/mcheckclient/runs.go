package main

// Thin clients for mcheckd's run-ledger routes (cmd/mcheckd/runs.go):
// -runs prints the same greppable lines as `mcheck -runs`, and -diff
// mirrors `mcheck -diff` — report changes to stdout (empty stdout ⇒
// byte-identical streams), perf deltas to stderr — so fleet scripts
// can gate on either binary interchangeably.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
)

// getLedgerJSON fetches base+path and decodes the JSON body into v.
func getLedgerJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, v)
}

// ledgerReport mirrors engine.Report's wire shape, decoupled from the
// internal package — this client speaks only JSON.
type ledgerReport struct {
	SM  string `json:"SM"`
	Msg string `json:"Msg"`
	Pos struct {
		File string `json:"File"`
		Line int    `json:"Line"`
		Col  int    `json:"Col"`
	} `json:"Pos"`
	Trace []json.RawMessage `json:"Trace,omitempty"`
}

func (r ledgerReport) position() string {
	return fmt.Sprintf("%s:%d:%d", r.Pos.File, r.Pos.Line, r.Pos.Col)
}

func runsCmd(base string) int {
	var resp struct {
		Runs []struct {
			ID        string `json:"id"`
			Reports   int    `json:"reports"`
			Tasks     int    `json:"tasks"`
			Decisions string `json:"decisions"`
			ElapsedUS int64  `json:"elapsed_us"`
		} `json:"runs"`
	}
	if err := getLedgerJSON(base, "/debug/runs", &resp); err != nil {
		fmt.Fprintf(os.Stderr, "mcheckclient: runs: %v\n", err)
		return 1
	}
	for _, e := range resp.Runs {
		fmt.Printf("%s reports=%d tasks=%d %s elapsed_ms=%.1f\n",
			e.ID, e.Reports, e.Tasks, e.Decisions, float64(e.ElapsedUS)/1000)
	}
	return 0
}

func diffCmd(base, spec string) int {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		fmt.Fprintln(os.Stderr, "mcheckclient: -diff wants two run ids: -diff OLD,NEW")
		return 2
	}
	var diff struct {
		A              string         `json:"a"`
		B              string         `json:"b"`
		SameRequest    bool           `json:"same_request"`
		Identical      bool           `json:"identical"`
		Appeared       []ledgerReport `json:"appeared"`
		Disappeared    []ledgerReport `json:"disappeared"`
		ElapsedDeltaUS int64          `json:"elapsed_delta_us"`
		TaskDeltaUS    int64          `json:"task_delta_us"`
		HitDelta       int            `json:"hit_delta"`
		MissDelta      int            `json:"miss_delta"`
	}
	path := "/debug/runs/diff?a=" + url.QueryEscape(parts[0]) + "&b=" + url.QueryEscape(parts[1])
	if err := getLedgerJSON(base, path, &diff); err != nil {
		fmt.Fprintf(os.Stderr, "mcheckclient: diff: %v\n", err)
		return 2
	}
	printSide := func(sign string, reps []ledgerReport) {
		for _, r := range reps {
			fmt.Printf("%s %s: [%s] %s\n", sign, r.position(), r.SM, r.Msg)
		}
	}
	printSide("-", diff.Disappeared)
	printSide("+", diff.Appeared)
	if diff.Identical {
		fmt.Fprintf(os.Stderr, "diff %s..%s: reports byte-identical\n", diff.A, diff.B)
	} else {
		fmt.Fprintf(os.Stderr, "diff %s..%s: %d appeared, %d disappeared\n",
			diff.A, diff.B, len(diff.Appeared), len(diff.Disappeared))
	}
	fmt.Fprintf(os.Stderr, "perf: elapsed %+.1fms, task time %+.1fms, hits %+d, misses %+d\n",
		float64(diff.ElapsedDeltaUS)/1000, float64(diff.TaskDeltaUS)/1000,
		diff.HitDelta, diff.MissDelta)
	return 0
}

// printFlight fetches the request's flight-recorder events (the fleet
// dispatch/steal/retry sequence stamped with this trace id) and
// prints them to stderr after the trace summary.
func printFlight(base, traceID string) {
	var resp struct {
		FlightEvents []struct {
			Time   string `json:"time"`
			Kind   string `json:"kind"`
			Task   string `json:"task"`
			Worker string `json:"worker"`
			Detail string `json:"detail"`
		} `json:"flight_events"`
	}
	path := "/debug/fleet?trace=" + url.QueryEscape(traceID)
	if err := getLedgerJSON(base, path, &resp); err != nil {
		fmt.Fprintf(os.Stderr, "mcheckclient: flight: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "flight events for trace %s: %d\n", traceID, len(resp.FlightEvents))
	for _, e := range resp.FlightEvents {
		line := fmt.Sprintf("  %s %s", e.Time, e.Kind)
		if e.Task != "" {
			line += " task=" + e.Task
		}
		if e.Worker != "" {
			line += " worker=" + e.Worker
		}
		if e.Detail != "" {
			line += " (" + e.Detail + ")"
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
