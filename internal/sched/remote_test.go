package sched

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/fleet"
	"flashmc/internal/global"
	"flashmc/internal/obs"
)

// execRemote runs descriptors straight through a worker Executor —
// the fleet path minus HTTP, so remote-vs-local comparisons isolate
// the serialize/recompute/cross-check logic.
type execRemote struct{ ex *Executor }

func (r execRemote) Do(ctx context.Context, d *fleet.Descriptor, tr *obs.Tracer) ([]byte, error) {
	return r.ex.Execute(ctx, d, tr)
}

// corruptRemote answers every task with bytes no artifact decoder
// accepts, forcing the local-fallback path.
type corruptRemote struct{}

func (corruptRemote) Do(ctx context.Context, d *fleet.Descriptor, tr *obs.Tracer) ([]byte, error) {
	return []byte("}} definitely not an artifact {{"), nil
}

// loadRemoteProto loads the test protocol through the exact frontend
// stack workers use (map source layered over the flash header), so
// dispatcher- and worker-side fingerprints must agree.
func loadRemoteProto(t testing.TB) (files map[string]string, roots []string, prog *core.Program) {
	t.Helper()
	gen := flashgen.Generate(flashgen.Options{Seed: 1})
	p := gen.Protocol(testProto)
	if p == nil {
		t.Fatalf("protocol %s not generated", testProto)
	}
	files = p.Files
	roots = append([]string(nil), p.RootFiles...)
	prog, err := core.Load(p.Name, cpp.Layered(cpp.MapSource(files), flash.HeaderSource()), roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ParseErrors) > 0 {
		t.Fatalf("parse errors: %v", prog.ParseErrors[0])
	}
	return files, roots, prog
}

// checkRemote runs one fleet-dispatched Check over a fresh shared
// depot and returns the rendered reports.
func checkRemote(t *testing.T, r Remote, files map[string]string, roots []string, prog *core.Program, spec *flash.Spec) []byte {
	t.Helper()
	shared, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srcHash := SourceHash(files, roots)
	if err := PutBundle(shared, srcHash, files, roots, spec); err != nil {
		t.Fatal(err)
	}
	if r == nil {
		r = execRemote{NewExecutor(shared)}
	}
	a := &Analyzer{Depot: shared, Workers: 4, Remote: r}
	res, err := a.Check(Request{Prog: prog, Spec: spec, Jobs: FlashJobs(spec), SrcHash: srcHash})
	if err != nil {
		t.Fatal(err)
	}
	return render(res.Reports)
}

// TestRemoteCheckMatchesLocal is the core fleet guarantee: a Check
// whose cache misses all execute on a remote worker produces the
// byte-identical report stream a purely local run does — and not via
// fallback: every task's cross-checks must pass on the worker.
func TestRemoteCheckMatchesLocal(t *testing.T) {
	files, roots, prog := loadRemoteProto(t)
	spec := ConventionSpec(prog)

	localDepot, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	la := &Analyzer{Depot: localDepot, Workers: 4}
	localRes, err := la.Check(Request{Prog: prog, Spec: spec, Jobs: FlashJobs(spec)})
	if err != nil {
		t.Fatal(err)
	}
	local := render(localRes.Reports)
	if len(localRes.Reports) == 0 {
		t.Fatal("protocol produced no reports; comparison is vacuous")
	}

	fallbackBefore := obs.Default.Snapshot()["fleet_tasks_fallback_total"]
	remote := checkRemote(t, nil, files, roots, prog, spec)
	if !bytes.Equal(local, remote) {
		t.Fatalf("remote reports differ from local:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if d := obs.Default.Snapshot()["fleet_tasks_fallback_total"] - fallbackBefore; d != 0 {
		t.Fatalf("%v tasks fell back to local execution; a clean fleet run must dispatch everything", d)
	}
}

// TestRemoteWarmCheck: after a remote cold run, a second Check over
// the same shared depot is served from cache, byte-identically.
func TestRemoteWarmCheck(t *testing.T) {
	files, roots, prog := loadRemoteProto(t)
	spec := ConventionSpec(prog)
	shared, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srcHash := SourceHash(files, roots)
	if err := PutBundle(shared, srcHash, files, roots, spec); err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: shared, Workers: 4, Remote: execRemote{NewExecutor(shared)}}
	req := Request{Prog: prog, Spec: spec, Jobs: FlashJobs(spec), SrcHash: srcHash}
	cold, err := a.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := a.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(cold.Reports), render(warm.Reports)) {
		t.Fatal("warm reports differ from cold")
	}
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed the cache %d times (workers did not populate the shared depot)", warm.Stats.CacheMisses)
	}
}

// TestRemoteCorruptFallsBack: a fleet that answers garbage degrades
// to local execution with identical reports — never worse than -j N.
func TestRemoteCorruptFallsBack(t *testing.T) {
	files, roots, prog := loadRemoteProto(t)
	spec := ConventionSpec(prog)

	localDepot, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	la := &Analyzer{Depot: localDepot, Workers: 4}
	localRes, err := la.Check(Request{Prog: prog, Spec: spec, Jobs: FlashJobs(spec)})
	if err != nil {
		t.Fatal(err)
	}

	fallbackBefore := obs.Default.Snapshot()["fleet_tasks_fallback_total"]
	remote := checkRemote(t, corruptRemote{}, files, roots, prog, spec)
	if !bytes.Equal(render(localRes.Reports), remote) {
		t.Fatal("fallback reports differ from local")
	}
	if d := obs.Default.Snapshot()["fleet_tasks_fallback_total"] - fallbackBefore; d == 0 {
		t.Fatal("fallback counter unchanged; the corrupt remote was never consulted")
	}
}

// twoWorkerRemote alternates descriptors across two worker Executors
// sharing one depot — the smallest pipeline whose work provably ran
// on more than one worker.
type twoWorkerRemote struct {
	mu      sync.Mutex
	n       int
	workers [2]*Executor
	served  [2]int
}

func (r *twoWorkerRemote) Do(ctx context.Context, d *fleet.Descriptor, tr *obs.Tracer) ([]byte, error) {
	r.mu.Lock()
	w := r.n % 2
	r.n++
	r.served[w]++
	r.mu.Unlock()
	return r.workers[w].Execute(ctx, d, tr)
}

// TestRemoteDecisionAttribution: a cold fleet run whose misses all
// execute on workers must count every one of them under the explicit
// "remote" reason — before the fix the leader counted its local
// best-effort classification ("new", "evicted", ...) even though the
// recompute never ran there, so sched_cache_decisions_total lied
// about where work happened.
func TestRemoteDecisionAttribution(t *testing.T) {
	files, roots, prog := loadRemoteProto(t)
	spec := ConventionSpec(prog)
	shared, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srcHash := SourceHash(files, roots)
	if err := PutBundle(shared, srcHash, files, roots, spec); err != nil {
		t.Fatal(err)
	}
	rem := &twoWorkerRemote{workers: [2]*Executor{NewExecutor(shared), NewExecutor(shared)}}
	a := &Analyzer{Depot: shared, Workers: 4, Remote: rem}
	res, err := a.Check(Request{Prog: prog, Spec: spec, Jobs: FlashJobs(spec), SrcHash: srcHash})
	if err != nil {
		t.Fatal(err)
	}
	if rem.served[0] == 0 || rem.served[1] == 0 {
		t.Fatalf("not a two-worker run: served %v", rem.served)
	}
	dec := res.Stats.Decisions
	if res.Stats.CacheMisses == 0 {
		t.Fatal("cold run missed nothing; attribution is vacuous")
	}
	if dec[DecisionRemote] != res.Stats.CacheMisses {
		t.Fatalf("remote decisions %d != misses %d (breakdown %v)", dec[DecisionRemote], res.Stats.CacheMisses, dec)
	}
	for _, r := range DecisionReasons {
		if r == DecisionHit || r == DecisionRemote {
			continue
		}
		if dec[r] != 0 {
			t.Fatalf("local reason %q counted %d times on an all-remote run (breakdown %v)", r, dec[r], dec)
		}
	}
	total := 0
	for _, n := range dec {
		total += n
	}
	if total != res.Stats.CacheHits+res.Stats.CacheMisses {
		t.Fatalf("decisions sum %d != hits %d + misses %d", total, res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	// The run's artifact refs agree: a ref either replays a cached
	// artifact or names the worker-computed one.
	for _, ref := range res.Artifacts {
		if ref.Decision != DecisionHit && ref.Decision != DecisionRemote {
			t.Fatalf("artifact %s carries local decision %q on an all-remote run", ref.Task, ref.Decision)
		}
	}
}

// TestExecutorRejectsSkew: every identity cross-check failure is a
// terminal fleet.ErrReject (version skew retried on a same-version
// worker would fail identically), while a missing bundle is transient.
func TestExecutorRejectsSkew(t *testing.T) {
	files, roots, prog := loadRemoteProto(t)
	spec := ConventionSpec(prog)
	shared, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srcHash := SourceHash(files, roots)
	specOpt := SpecHash(spec)
	if err := PutBundle(shared, srcHash, files, roots, spec); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(shared)
	lanesVersion := registryChecker("lanes").Version()

	base := func(kind string) *fleet.Descriptor {
		return &fleet.Descriptor{
			Format: fleet.DescFormat, Kind: kind,
			SrcHash: srcHash, SpecOpt: specOpt,
		}
	}

	// Missing bundle: transient (the depot may not have synced yet) —
	// anything but a reject, so the dispatcher retries elsewhere.
	d := base(fleet.KindGlobal)
	d.SrcHash = "0000000000000000"
	d.Checker, d.CheckerVersion = "lanes", lanesVersion
	d.Output = depot.Key{Kind: "reports/v3", Source: "x", Checker: "lanes", Version: lanesVersion, Options: specOpt}
	if _, err := ex.Execute(context.Background(), d, nil); err == nil || errors.Is(err, fleet.ErrReject) {
		t.Fatalf("missing bundle: err = %v, want transient non-reject", err)
	}

	// Wrong function name for the index: the worker's parse disagrees
	// with the descriptor — reject.
	d = base(fleet.KindSummary)
	d.Checker, d.CheckerVersion = "lanes", lanesVersion
	d.FnIndex, d.Fn = 0, "no_such_function"
	d.Output = depot.Key{Kind: "summary", Source: "x", Checker: "lanes", Version: lanesVersion, Options: specOpt}
	if _, err := ex.Execute(context.Background(), d, nil); !errors.Is(err, fleet.ErrReject) {
		t.Fatalf("wrong fn name: err = %v, want ErrReject", err)
	}

	// Checker version skew on a lane task — reject.
	d = base(fleet.KindLanes)
	d.Checker, d.CheckerVersion = "lanes", "v0-ancient"
	d.Handler = prog.Fns[0].Name
	d.Output = depot.Key{Kind: "lanes", Source: "x", Checker: "lanes", Version: "v0-ancient", Options: specOpt}
	if _, err := ex.Execute(context.Background(), d, nil); !errors.Is(err, fleet.ErrReject) {
		t.Fatalf("version skew: err = %v, want ErrReject", err)
	}

	// Unknown whole-program checker — reject.
	d = base(fleet.KindGlobal)
	d.Checker, d.CheckerVersion = "no_such_checker", "v1"
	d.Output = depot.Key{Kind: "reports/v3", Source: "x", Checker: "no_such_checker", Version: "v1", Options: specOpt}
	if _, err := ex.Execute(context.Background(), d, nil); !errors.Is(err, fleet.ErrReject) {
		t.Fatalf("unknown checker: err = %v, want ErrReject", err)
	}

	// A bundle whose spec hash does not match the descriptor's — the
	// depot the worker sees diverged from the dispatcher's — reject.
	if err := shared.PutJSON(fleet.BundleKey(srcHash, "bogus-spec"), fleet.Bundle{Files: files, Roots: roots, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	d = base(fleet.KindGlobal)
	d.SpecOpt = "bogus-spec"
	d.Checker, d.CheckerVersion = "lanes", lanesVersion
	d.Output = depot.Key{Kind: "reports/v3", Source: "x", Checker: "lanes", Version: lanesVersion, Options: "bogus-spec"}
	if _, err := ex.Execute(context.Background(), d, nil); !errors.Is(err, fleet.ErrReject) {
		t.Fatalf("spec hash mismatch: err = %v, want ErrReject", err)
	}
}

// TestEveryArtifactHasProvenance: every artifact a cold Check writes —
// reports of every task kind and the lane pass's function summaries —
// carries a prov/v1 sidecar naming who computed it, whether the task
// ran locally or on a fleet worker. Lane artifacts record their
// handler's cone of summaries as dependencies; nothing else has any.
func TestEveryArtifactHasProvenance(t *testing.T) {
	files, roots, prog := loadRemoteProto(t)
	spec := ConventionSpec(prog)
	jobs := FlashJobs(spec)
	var lanes Job
	for _, j := range jobs {
		if j.Lanes {
			lanes = j
		}
	}
	fps := Fingerprints(prog)
	fpByFn := map[string]string{}
	for i, fn := range prog.Fns {
		if _, ok := fpByFn[fn.Name]; !ok {
			fpByFn[fn.Name] = fps[i]
		}
	}
	linked, _ := global.Link(checkers.Summarize(prog))

	for _, remote := range []bool{false, true} {
		d, err := depot.Open("")
		if err != nil {
			t.Fatal(err)
		}
		a := &Analyzer{Depot: d, Workers: 4}
		req := Request{Prog: prog, Spec: spec, Jobs: jobs}
		producer := localProducer
		if remote {
			req.SrcHash = SourceHash(files, roots)
			if err := PutBundle(d, req.SrcHash, files, roots, spec); err != nil {
				t.Fatal(err)
			}
			ex := NewExecutor(d)
			ex.Producer = "worker-under-test"
			a.Remote, producer = execRemote{ex}, ex.Producer
		}
		res, err := a.Check(req)
		if err != nil {
			t.Fatal(err)
		}
		if remote && res.Stats.Decisions[DecisionRemote] != res.Stats.CacheMisses {
			t.Fatalf("remote run: %d of %d misses ran remotely", res.Stats.Decisions[DecisionRemote], res.Stats.CacheMisses)
		}

		check := func(key depot.Key, wantDeps []string) {
			t.Helper()
			pv, ok := d.GetProv(key)
			if !ok {
				t.Fatalf("remote=%v: artifact %s has no provenance", remote, key.ID())
			}
			if pv.Producer != producer {
				t.Errorf("remote=%v: artifact %s produced by %q, want %q", remote, key.ID(), pv.Producer, producer)
			}
			if !reflect.DeepEqual(pv.Deps, wantDeps) {
				t.Errorf("remote=%v: artifact %s deps %v, want %v", remote, key.ID(), pv.Deps, wantDeps)
			}
		}
		kinds := map[string]int{}
		for _, ref := range res.Artifacts {
			kind, rest, _ := strings.Cut(ref.Task, ":")
			kinds[kind]++
			var wantDeps []string
			if kind == "lanes" {
				_, h, _ := strings.Cut(rest, ":")
				wantDeps = summaryDepKeys(linked.Reachable([]string{h}), fpByFn, lanes.Version, lanes.Options)
			}
			check(ref.Key, wantDeps)
		}
		for _, fp := range fps {
			kinds["summary"]++
			check(depot.Key{Kind: "summary", Source: fp, Checker: "lanes",
				Version: lanes.Version, Options: lanes.Options}, nil)
		}
		for _, kind := range []string{"sm", "lanes", "glob", "summary"} {
			if kinds[kind] == 0 {
				t.Errorf("remote=%v: no %s artifacts checked", remote, kind)
			}
		}
	}
}
