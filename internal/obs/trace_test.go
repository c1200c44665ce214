package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestSetProcessNamesLane: SetProcess stamps subsequent events with
// the pid and records exactly one process_name metadata event per pid.
func TestSetProcessNamesLane(t *testing.T) {
	tr := NewTracer()
	tr.SetProcess(7, "mcheckd")
	tr.SetProcess(7, "mcheckd") // dedup: second call records nothing new
	sp := tr.StartSpan("work", 3)
	time.Sleep(time.Millisecond)
	sp.End()

	events := tr.Events()
	metas, spans := 0, 0
	for _, e := range events {
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "process_name" || e.PID != 7 {
				t.Fatalf("metadata event = %+v", e)
			}
			if name, _ := e.Args["name"].(string); name != "mcheckd" {
				t.Fatalf("process_name args = %v", e.Args)
			}
		case "X":
			spans++
			if e.PID != 7 || e.TID != 3 {
				t.Fatalf("span lane = (pid=%d,tid=%d), want (7,3)", e.PID, e.TID)
			}
		}
	}
	if metas != 1 || spans != 1 {
		t.Fatalf("metas=%d spans=%d, want 1 and 1", metas, spans)
	}
}

// TestProcessMetaForeignLane: ProcessMeta names a lane the tracer's
// own events never use — how the leader labels merged worker pids.
func TestProcessMetaForeignLane(t *testing.T) {
	tr := NewTracer()
	tr.ProcessMeta(4, "mcheckworker 127.0.0.1:9999")
	events := tr.Events()
	if len(events) != 1 || events[0].Ph != "M" || events[0].PID != 4 {
		t.Fatalf("events = %+v", events)
	}
}

// TestMergeRemoteRewritesAndShifts: merged remote events land on the
// assigned (pid, tid) lane with timestamps shifted onto the leader's
// clock, metadata dropped, and negative results clamped to zero.
func TestMergeRemoteRewritesAndShifts(t *testing.T) {
	tr := NewTracer()
	remote := []Event{
		{Name: "process_name", Ph: "M", PID: 12345, Args: map[string]any{"name": "worker"}},
		{Name: "frontend", Ph: "X", TS: 10, Dur: 5, PID: 12345, TID: 0},
		{Name: "run", Ph: "X", TS: 20, Dur: 30, PID: 12345, TID: 0},
	}
	tr.MergeRemote(remote, 1000, 3, 42)

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("merged %d events, want 2 (metadata dropped): %+v", len(events), events)
	}
	for i, want := range []struct {
		name string
		ts   float64
	}{{"frontend", 1010}, {"run", 1020}} {
		e := events[i]
		if e.Name != want.name || e.TS != want.ts || e.PID != 3 || e.TID != 42 {
			t.Fatalf("event %d = %+v, want name=%s ts=%v pid=3 tid=42", i, e, want.name, want.ts)
		}
	}

	// A pathological negative offset must not produce negative
	// timestamps — ValidateTrace rejects those.
	tr2 := NewTracer()
	tr2.MergeRemote([]Event{{Name: "x", Ph: "X", TS: 5, Dur: 1}}, -100, 2, 1)
	if ts := tr2.Events()[0].TS; ts != 0 {
		t.Fatalf("clamped TS = %v, want 0", ts)
	}
}

// TestWriteTraceJSONSortsLanes: events recorded out of lane order come
// out grouped per (pid, tid) with monotone timestamps, so a merged
// multi-process trace passes validation no matter the arrival order of
// worker replies.
func TestWriteTraceJSONSortsLanes(t *testing.T) {
	tr := NewTracer()
	tr.SetProcess(1, "leader")
	sp := tr.StartSpan("dispatch", 0)
	time.Sleep(time.Millisecond)
	sp.End()
	// Worker spans arrive after the leader span but started earlier on
	// their own lane; a second worker merges before the first.
	tr.ProcessMeta(3, "worker-b")
	tr.MergeRemote([]Event{{Name: "run-b", Ph: "X", TS: 0, Dur: 2}}, 50, 3, 1)
	tr.ProcessMeta(2, "worker-a")
	tr.MergeRemote([]Event{{Name: "run-a", Ph: "X", TS: 0, Dur: 2}}, 10, 2, 1)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTraceStats(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if stats.Spans != 3 {
		t.Fatalf("spans = %d, want 3", stats.Spans)
	}
	want := []ProcessStats{
		{PID: 1, Name: "leader", Spans: 1},
		{PID: 2, Name: "worker-a", Spans: 1},
		{PID: 3, Name: "worker-b", Spans: 1},
	}
	if len(stats.Processes) != len(want) {
		t.Fatalf("processes = %+v", stats.Processes)
	}
	for i, w := range want {
		if stats.Processes[i] != w {
			t.Fatalf("process %d = %+v, want %+v", i, stats.Processes[i], w)
		}
	}
}

// TestValidateTraceStatsRejects: the lane discipline is enforced —
// out-of-order timestamps within one (pid, tid) lane and negative
// timestamps both fail, while the same timestamps on different lanes
// pass.
func TestValidateTraceStatsRejects(t *testing.T) {
	bad := `[{"name":"a","ph":"X","ts":100,"dur":1,"pid":1,"tid":1},
	        {"name":"b","ph":"X","ts":50,"dur":1,"pid":1,"tid":1}]`
	if _, err := ValidateTraceStats(strings.NewReader(bad)); err == nil {
		t.Fatal("out-of-order lane timestamps validated")
	}

	neg := `[{"name":"a","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}]`
	if _, err := ValidateTraceStats(strings.NewReader(neg)); err == nil {
		t.Fatal("negative timestamp validated")
	}

	ok := `[{"name":"a","ph":"X","ts":100,"dur":1,"pid":1,"tid":1},
	       {"name":"b","ph":"X","ts":50,"dur":1,"pid":2,"tid":1}]`
	if _, err := ValidateTraceStats(strings.NewReader(ok)); err != nil {
		t.Fatalf("cross-lane ordering rejected: %v", err)
	}

	// Metadata events are exempt from the monotonicity walk (they carry
	// ts 0 wherever they sort) but still name processes.
	meta := `[{"name":"process_name","ph":"M","pid":9,"args":{"name":"w"}},
	         {"name":"a","ph":"X","ts":1,"dur":1,"pid":9,"tid":0}]`
	stats, err := ValidateTraceStats(strings.NewReader(meta))
	if err != nil {
		t.Fatalf("metadata trace rejected: %v", err)
	}
	if len(stats.Processes) != 1 || stats.Processes[0].Name != "w" {
		t.Fatalf("processes = %+v", stats.Processes)
	}
}
