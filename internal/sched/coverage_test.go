package sched

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"flashmc/internal/cover"
	"flashmc/internal/depot"
)

// renderCoverage serializes a coverage set's deterministic snapshot
// for byte comparison.
func renderCoverage(t *testing.T, s *cover.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkWithCoverage runs the full FLASH suite over the test protocol
// with the given worker count and depot, returning the result and the
// coverage bytes.
func checkWithCoverage(t *testing.T, d *depot.Depot, workers int) (*Result, []byte) {
	t.Helper()
	p, prog := loadProto(t, nil)
	set := cover.NewSet()
	a := &Analyzer{Depot: d, Workers: workers, Coverage: set}
	res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	return res, renderCoverage(t, set)
}

// Acceptance: the report stream and the coverage matrix are identical
// at -j 1 and -j GOMAXPROCS, counts included.
func TestCoverageIdenticalAcrossWorkerCounts(t *testing.T) {
	serialRes, serial := checkWithCoverage(t, nil, 1)
	parallelRes, parallel := checkWithCoverage(t, nil, runtime.GOMAXPROCS(0))
	serialOut, parallelOut := render(serialRes.Reports), render(parallelRes.Reports)
	if len(serialOut) == 0 {
		t.Fatal("no reports")
	}
	if !bytes.Equal(serialOut, parallelOut) {
		t.Fatalf("reports differ between -j 1 and -j %d:\n%s\nvs\n%s",
			runtime.GOMAXPROCS(0), serialOut, parallelOut)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("coverage differs between -j 1 and -j %d:\n%s\nvs\n%s",
			runtime.GOMAXPROCS(0), serial, parallel)
	}
	if len(serial) < 10 {
		t.Fatalf("suspiciously empty coverage: %s", serial)
	}
}

// Acceptance: a warm (all cache hits) run replays exactly the
// coverage the cold run measured.
func TestCoverageIdenticalWarmCold(t *testing.T) {
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	_, cold := checkWithCoverage(t, d, 0)

	// Second run over a fresh parse of the same sources: pure hits.
	p, prog := loadProto(t, nil)
	set := cover.NewSet()
	a := &Analyzer{Depot: d, Coverage: set}
	warmRes, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times", warmRes.Stats.CacheMisses)
	}
	warm := renderCoverage(t, set)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm coverage differs from cold:\n%s\nvs\n%s", cold, warm)
	}
}

// Every FLASH job records some coverage on the corpus protocol.
func TestEveryJobRecordsCoverage(t *testing.T) {
	p, prog := loadProto(t, nil)
	set := cover.NewSet()
	a := &Analyzer{Coverage: set}
	if _, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)}); err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot()
	for _, job := range FlashJobs(p.Spec) {
		c := snap.Checkers[job.Name]
		if c == nil {
			t.Errorf("job %s recorded no coverage", job.Name)
			continue
		}
		if len(c.Rules)+len(c.States) == 0 {
			t.Errorf("job %s: empty coverage entry: %+v", job.Name, c)
		}
	}
	// The snapshot must validate as a coverage/v1 artifact.
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := cover.Validate(&buf); err != nil {
		t.Fatalf("pipeline coverage artifact invalid: %v", err)
	}
}

// A nil Coverage set keeps the pipeline working (coverage is opt-in).
func TestNilCoverageSetOK(t *testing.T) {
	p, prog := loadProto(t, nil)
	a := &Analyzer{}
	res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("no reports")
	}
}
