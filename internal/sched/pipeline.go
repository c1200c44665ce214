package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"flashmc/internal/cc/token"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/cover"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/fleet"
	"flashmc/internal/global"
	"flashmc/internal/metal"
	"flashmc/internal/obs"
)

// reportsKind versions the depot's report-artifact format. v2 added
// witness traces; v3 stores the run's dynamic coverage alongside the
// reports, so a warm run replays exactly the coverage the cold run
// measured — the property the warm==cold coverage gate tests. Bumping
// the kind (rather than every checker version) retires all stale
// cached payloads at once, including those of ad-hoc checkers.
const reportsKind = "reports/v3"

// artifact is the depot payload for report-producing tasks: the
// reports plus the non-empty coverages the run recorded. Coverage
// timing fields are excluded from JSON (see engine.Coverage), so the
// payload stays byte-deterministic.
type artifact struct {
	Reports  []engine.Report    `json:"reports"`
	Coverage []*engine.Coverage `json:"coverage,omitempty"`
}

// mkArtifact bundles reports with the non-empty subset of covs.
func mkArtifact(reports []engine.Report, covs ...*engine.Coverage) artifact {
	a := artifact{Reports: reports}
	for _, c := range covs {
		if !c.Empty() {
			a.Coverage = append(a.Coverage, c)
		}
	}
	return a
}

// Job is one checker to run over a program. Exactly one of SM,
// RunCov, or Lanes is set:
//
//   - SM jobs run a state machine per function, cached per function;
//   - RunCov jobs are whole-program passes, cached per program;
//   - the Lanes job is the §7 inter-procedural pass, decomposed into
//     per-function summary tasks, a link barrier, and per-handler
//     traversals cached by the handler's call-graph cone.
type Job struct {
	// Name is the checker id in depot keys and reports.
	Name string
	// Version is the checker's semantic version (checkers.Version);
	// a bump misses the cache.
	Version string
	// Options hashes the remaining inputs: protocol spec, engine
	// options, ad-hoc checker source.
	Options string

	SM *engine.SM
	// RunCov is a whole-program pass returning its reports and the
	// pass's dynamic coverage.
	RunCov func(p *core.Program) ([]engine.Report, []*engine.Coverage)
	Lanes  bool
	// AdhocSrc is the metal source of an ad-hoc SM job (see AdhocJob).
	// It rides in fleet descriptors so a remote worker can compile the
	// same checker; built-in jobs leave it empty and workers resolve
	// the checker from their registry.
	AdhocSrc string
}

// AdhocJob builds the SM job for an ad-hoc metal checker compiled
// from src. An ad-hoc checker has no declared version; its source
// hash takes that role in the depot key ("adhoc-" and the first 8
// bytes of the source's sha256, in hex), so editing the source
// invalidates its cached results.
func AdhocJob(mp *metal.Program, src, specOpt string) Job {
	h := sha256.Sum256([]byte(src))
	return Job{Name: mp.Name, Version: "adhoc-" + hex.EncodeToString(h[:8]),
		Options: specOpt, SM: mp.SM, AdhocSrc: src}
}

// Request is one analysis of one loaded program.
type Request struct {
	Prog *core.Program
	Spec *flash.Spec
	// Jobs run in order; the order fixes report assembly, so equal
	// requests produce byte-identical report streams whether results
	// come from the cache or from execution.
	Jobs []Job
	// Fingerprints and ProgramFP, when both set and Fingerprints is
	// parallel to Prog.Fns, skip the fingerprint walk (a ProgramCache
	// hit supplies them). They must equal Fingerprints(Prog) and
	// ProgramFingerprint(Prog, fps) — wrong values mis-address the
	// cache. Left empty, Check computes them.
	Fingerprints []string
	ProgramFP    string
	// SrcHash is the request's SourceHash. Required for remote
	// dispatch (descriptors address the source bundle by it, and
	// PutBundle must have published the bundle under it first); left
	// empty, every task runs locally even with a Remote configured.
	SrcHash string
	// Tracer, when non-nil, overrides the analyzer's tracer for this
	// request — mcheckd records one tracer per /check so traces do not
	// interleave across concurrent requests.
	Tracer *obs.Tracer
	// TraceID stamps remote descriptors with the request's trace
	// identity (mcheckd derives it from X-Request-Id); workers echo
	// their execution spans only for traced descriptors.
	TraceID string
}

// Stats describes one Check call.
type Stats struct {
	// Functions is the number of function definitions analyzed.
	Functions int
	// Tasks, MaxQueueDepth and TaskTime come from the scheduler run.
	Tasks         int
	MaxQueueDepth int
	TaskTime      time.Duration
	// Elapsed is the wall time of the whole Check call.
	Elapsed time.Duration
	// QueueWait is the summed time tasks spent ready but unclaimed.
	QueueWait time.Duration
	// CacheHits and CacheMisses count depot lookups for this call.
	CacheHits   int
	CacheMisses int
	// Reanalyzed lists the distinct functions (and, for the lane
	// pass, handlers) whose per-function artifacts missed the cache
	// and were recomputed, sorted. A single-function edit should keep
	// this to the function itself plus its call-graph dependents.
	Reanalyzed []string
	// GlobalReruns counts whole-program passes that missed (they
	// re-run on any program change and are not per-function work).
	GlobalReruns int
	// Decisions breaks the depot lookups down by cache-decision
	// reason (DecisionHit, DecisionNew, ...). The values sum to
	// CacheHits + CacheMisses.
	Decisions map[string]int
	// TaskDurations holds each executed task body's wall time; the
	// run ledger derives timing quantiles from it.
	TaskDurations []time.Duration
}

// ArtifactRef ties a run's reports back to the depot artifact that
// produced them, so a report can be explained offline: GetProv on
// Key names the producer, checker version, inputs and cost.
type ArtifactRef struct {
	// Task is the scheduler task that loaded or computed the
	// artifact.
	Task string
	// Key addresses the artifact (and its provenance sidecar).
	Key depot.Key
	// Decision is the task's cache decision this run.
	Decision string
}

// Result is the outcome of one Check call.
type Result struct {
	Reports []engine.Report
	// RefIdx is parallel to Reports: the index into Artifacts of the
	// artifact each report came from, or -1 for reports synthesized
	// outside any artifact (link errors).
	RefIdx []int
	// Artifacts lists the report-producing artifacts the run touched,
	// in assembly order.
	Artifacts []ArtifactRef
	Stats     Stats
}

// Analyzer executes requests through the scheduler with a depot
// cache. The zero value works: no cache reuse across calls (a fresh
// in-memory depot per call) and GOMAXPROCS workers.
type Analyzer struct {
	// Depot caches artifacts across calls; nil means a private
	// in-memory depot per call.
	Depot *depot.Depot
	// Workers sizes the scheduler pool; <= 0 means GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, records one span per scheduled task plus a
	// span for the whole Check call.
	Tracer *obs.Tracer
	// Coverage, when non-nil, accumulates every job's dynamic coverage
	// keyed by job name. Cache hits replay the coverage stored in the
	// artifact, so the merged counts are identical warm or cold and at
	// any worker count (the set's merge is additive and commutative).
	Coverage *cover.Set
	// Remote, when non-nil, executes cache-missed tasks on the worker
	// fleet (requires Request.SrcHash and a published bundle). Any
	// remote failure falls back to local execution, so results are
	// byte-identical with or without a fleet.
	Remote Remote
}

// runState is one Check call's shared task context: the depot, the
// fleet dispatch context (nil without a fleet) and the request's trace
// identity, plus the cache traffic every task records.
type runState struct {
	d       *depot.Depot
	rem     *remoteRun
	traceID string

	mu         sync.Mutex
	decisions  map[string]int
	reanalyzed map[string]bool
	globals    int
}

// record stamps one task's final cache decision on its trace span,
// counts it, and on a miss marks what was reanalyzed: the function or
// handler unit, or a whole-program rerun when unit is empty.
func (rs *runState) record(t *Task, reason, unit string) {
	t.Annotate("cache", reason)
	decisionCounts.With(reason).Inc()
	rs.mu.Lock()
	rs.decisions[reason]++
	if reason != DecisionHit {
		if unit == "" {
			rs.globals++
		} else {
			rs.reanalyzed[unit] = true
		}
	}
	rs.mu.Unlock()
}

// cachedTask is one cacheable unit of work of any kind: the depot key
// its artifact lives under, the kind-specific descriptor fields a
// fleet worker needs, and the local computation.
type cachedTask[T any] struct {
	key depot.Key
	// desc holds Kind plus Fn/FnIndex, Handler or AdhocSrc; the
	// request-wide fields are filled in at dispatch.
	desc    fleet.Descriptor
	compute func() T
	// deps, when set, lists the artifact's input keys for its
	// provenance sidecar.
	deps func() []string
}

// taskIdentity names d's task for miss attribution (the tasklast/v1
// marker identity) and returns the function or handler it analyzes,
// empty for a whole-program pass.
func taskIdentity(d *fleet.Descriptor) (identity, unit string) {
	switch d.Kind {
	case fleet.KindSM:
		return "sm:" + d.Fn, d.Fn
	case fleet.KindSummary:
		return "sum:" + d.Fn, d.Fn
	case fleet.KindLanes:
		return "lanes:" + d.Handler, d.Handler
	}
	return "glob", ""
}

// resolve produces one task's artifact and returns it with the task's
// cache decision. A depot hit is decoded; a miss is classified and
// its marker rewritten (so the next run's miss can be attributed; a
// warm run writes nothing), then offered to the fleet, and computed
// and stored locally when the fleet cannot produce it. The decision
// is recorded only once the resolution is known: a miss a fleet
// worker computed counts as DecisionRemote, not as its local reason.
func resolve[T any](rs *runState, t *Task, ct cachedTask[T]) (T, string, error) {
	var v T
	if rs.d.GetJSON(ct.key, &v) {
		rs.record(t, DecisionHit, "")
		return v, DecisionHit, nil
	}
	identity, unit := taskIdentity(&ct.desc)
	reason := classifyMiss(rs.d, ct.key.Checker, identity, ct.key)
	writeMarker(rs.d, ct.key.Checker, identity, ct.key)
	if rs.rem != nil {
		d := ct.desc
		var rv T
		if rs.rem.do(t.ID, ct.key, &d, &rv) {
			rs.record(t, DecisionRemote, unit)
			return rv, DecisionRemote, nil
		}
	}
	rs.record(t, reason, unit)
	v, _, err := ct.computeStore(rs.d, nil, localProducer, rs.traceID)
	return v, reason, err
}

// computeStore runs the task's computation and stores the artifact
// under its key with a provenance sidecar naming producer, the trace
// and the cost. The leader's local fallback and the fleet worker both
// end here, so either side writes the same bytes; the stored bytes are
// returned for the worker's reply.
func (ct cachedTask[T]) computeStore(d *depot.Depot, tr *obs.Tracer, producer, traceID string) (T, []byte, error) {
	rsp := tr.StartSpan("run", 0)
	t0 := time.Now()
	v := ct.compute()
	rsp.End()
	prov := &depot.Provenance{Producer: producer, TraceID: traceID}
	if ct.deps != nil {
		prov.Deps = ct.deps()
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return v, nil, fmt.Errorf("sched: marshal artifact: %w", err)
	}
	psp := tr.StartSpan("put", 0)
	err = d.Put(ct.key, raw)
	psp.End()
	if err != nil {
		return v, nil, fmt.Errorf("sched: store artifact: %w", err)
	}
	prov.WallUS = time.Since(t0).Microseconds()
	_ = d.PutProv(ct.key, prov)
	return v, raw, nil
}

// slot is one report-producing task's output. Each task writes only
// its own slot, so no locking.
type slot struct {
	ref     ArtifactRef
	reports []engine.Report
}

// report resolves one report-producing task into s and replays the
// artifact's coverage.
func (a *Analyzer) report(rs *runState, t *Task, s *slot, ct cachedTask[artifact]) error {
	art, reason, err := resolve(rs, t, ct)
	if err != nil {
		return err
	}
	*s = slot{ref: ArtifactRef{Task: t.ID, Key: ct.key, Decision: reason}, reports: art.Reports}
	a.recordCoverage(ct.key.Checker, art.Coverage)
	return nil
}

// Check analyzes req.Prog with req.Jobs, reusing every artifact in
// the depot whose inputs are unchanged. The report stream is
// byte-identical between warm and cold runs.
func (a *Analyzer) Check(req Request) (*Result, error) {
	start := time.Now()
	tracer := a.Tracer
	if req.Tracer != nil {
		tracer = req.Tracer
	}
	sp := tracer.StartSpan("check", 0)
	defer sp.End()
	d := a.Depot
	if d == nil {
		d, _ = depot.Open("")
	}
	p := req.Prog
	rs := &runState{d: d, traceID: req.TraceID, reanalyzed: map[string]bool{}, decisions: map[string]int{}}

	// Remote dispatch context: with a fleet configured and the source
	// bundle published under req.SrcHash, cache-missed tasks are tried
	// on the fleet first. Workers write the same artifact to the same
	// depot key local execution would, and every failure falls back to
	// the local computation, so the report stream is byte-identical
	// with or without workers.
	if a.Remote != nil && req.SrcHash != "" {
		rs.rem = &remoteRun{r: a.Remote, srcHash: req.SrcHash, specOpt: SpecHash(req.Spec),
			traceID: req.TraceID, tr: tracer}
	}

	fps, progFP := req.Fingerprints, req.ProgramFP
	if len(fps) != len(p.Fns) || progFP == "" {
		fps = Fingerprints(p)
		progFP = ProgramFingerprint(p, fps)
	}
	fpByFn := make(map[string]string, len(p.Fns))
	for i, fn := range p.Fns {
		if _, ok := fpByFn[fn.Name]; !ok { // duplicates keep the first, like global.Link
			fpByFn[fn.Name] = fps[i]
		}
	}

	var tasks []*Task

	// The lane pass's local half: one summary task per function (the
	// depot's per-function CFG artifact, also the link input), then the
	// link barrier joining every summary into the whole-protocol call
	// graph that per-handler lane tasks wait on.
	var (
		linked   *global.Program
		linkErrs []error
	)
	if li := slices.IndexFunc(req.Jobs, func(j Job) bool { return j.Lanes }); li >= 0 {
		job := req.Jobs[li]
		summaries := make([]*global.Summary, len(p.Fns))
		sumIDs := make([]string, len(p.Fns))
		for i, fn := range p.Fns {
			key := depot.Key{Kind: "summary", Source: fps[i], Checker: "lanes",
				Version: job.Version, Options: job.Options}
			t := &Task{ID: fmt.Sprintf("sum:%d", i)}
			t.Run = func() error {
				s, _, err := resolve(rs, t, cachedTask[*global.Summary]{key: key,
					desc: fleet.Descriptor{Kind: fleet.KindSummary, FnIndex: i, Fn: fn.Name},
					compute: func() *global.Summary {
						return global.FromCFG(p.Graphs[i], checkers.LaneAnnotator)
					}})
				summaries[i] = s
				return err
			}
			sumIDs[i] = t.ID
			tasks = append(tasks, t)
		}
		tasks = append(tasks, &Task{ID: "link", Deps: sumIDs, Run: func() error {
			linked, linkErrs = global.Link(summaries)
			return nil
		}})
	}

	// One slot per report-producing task, assembled in job order after
	// the run: per function for SM jobs, per handler for the lane job,
	// one for a whole-program pass.
	slots := make([][]slot, len(req.Jobs))
	for ji, job := range req.Jobs {
		key := depot.Key{Kind: reportsKind, Checker: job.Name, Version: job.Version, Options: job.Options}
		switch {
		case job.SM != nil:
			slots[ji] = make([]slot, len(p.Fns))
			for i, fn := range p.Fns {
				key := key
				key.Source = fps[i]
				t := &Task{ID: fmt.Sprintf("sm:%d:%d", ji, i)}
				t.Run = func() error {
					return a.report(rs, t, &slots[ji][i], cachedTask[artifact]{key: key,
						desc: fleet.Descriptor{Kind: fleet.KindSM, FnIndex: i, Fn: fn.Name, AdhocSrc: job.AdhocSrc},
						compute: func() artifact {
							return mkArtifact(engine.RunCov(p.Graphs[i], job.SM))
						}})
				}
				tasks = append(tasks, t)
			}

		case job.Lanes:
			var handlers []string
			if req.Spec != nil {
				handlers = append(append(handlers, req.Spec.Hardware...), req.Spec.Software...)
			}
			slots[ji] = make([]slot, len(handlers))
			for hi, h := range handlers {
				t := &Task{ID: fmt.Sprintf("lanes:%d:%s", ji, h), Deps: []string{"link"}}
				t.Run = func() error {
					reach := linked.Reachable([]string{h})
					key := key
					key.Source = reachFingerprint(h, reach, fpByFn)
					return a.report(rs, t, &slots[ji][hi], cachedTask[artifact]{key: key,
						desc:    fleet.Descriptor{Kind: fleet.KindLanes, Handler: h},
						compute: func() artifact { return laneArtifact(linked, h, req.Spec) },
						deps: func() []string {
							return summaryDepKeys(reach, fpByFn, job.Version, job.Options)
						}})
				}
				tasks = append(tasks, t)
			}

		case job.RunCov != nil:
			slots[ji] = make([]slot, 1)
			key.Source = progFP
			t := &Task{ID: fmt.Sprintf("glob:%d", ji)}
			t.Run = func() error {
				return a.report(rs, t, &slots[ji][0], cachedTask[artifact]{key: key,
					desc: fleet.Descriptor{Kind: fleet.KindGlobal},
					compute: func() artifact {
						reports, covs := job.RunCov(p)
						return mkArtifact(reports, covs...)
					}})
			}
			tasks = append(tasks, t)

		default:
			return nil, fmt.Errorf("sched: job %s: no SM, RunCov, or Lanes", job.Name)
		}
	}

	stats, err := RunTraced(a.Workers, tracer, tasks)
	if err != nil {
		return nil, err
	}

	// Assemble in job order, within a job in function/handler order:
	// the same order direct execution produces, so warm and cold runs
	// render identically.
	res := &Result{}
	for ji, job := range req.Jobs {
		for _, s := range slots[ji] {
			res.Artifacts = append(res.Artifacts, s.ref)
			for range s.reports {
				res.RefIdx = append(res.RefIdx, len(res.Artifacts)-1)
			}
			res.Reports = append(res.Reports, s.reports...)
		}
		if job.Lanes {
			for _, e := range linkErrs {
				res.Reports = append(res.Reports, engine.Report{SM: job.Name, Rule: "link", Msg: e.Error(),
					Trace: engine.Witness(token.Pos{}, "link", e.Error())})
				res.RefIdx = append(res.RefIdx, -1)
			}
			// Link runs live on every call (it is the barrier, never
			// cached), so its coverage is recorded here identically on
			// warm and cold paths.
			a.Coverage.Record(job.Name, checkers.LinkCoverage(len(linkErrs)))
		}
	}

	lookups := 0
	for _, n := range rs.decisions {
		lookups += n
	}
	res.Stats = Stats{
		Functions:     len(p.Fns),
		Tasks:         stats.Tasks,
		MaxQueueDepth: stats.MaxQueueDepth,
		TaskTime:      stats.TaskTime,
		Elapsed:       time.Since(start),
		QueueWait:     stats.QueueWait,
		CacheHits:     rs.decisions[DecisionHit],
		CacheMisses:   lookups - rs.decisions[DecisionHit],
		GlobalReruns:  rs.globals,
		Decisions:     rs.decisions,
		TaskDurations: stats.Durations,
	}
	for fn := range rs.reanalyzed {
		res.Stats.Reanalyzed = append(res.Stats.Reanalyzed, fn)
	}
	sort.Strings(res.Stats.Reanalyzed)
	return res, nil
}

// recordCoverage replays a slice of coverages into the analyzer's
// coverage set (no-op when coverage collection is off).
func (a *Analyzer) recordCoverage(checker string, covs []*engine.Coverage) {
	if a.Coverage == nil {
		return
	}
	for _, c := range covs {
		a.Coverage.Record(checker, c)
	}
}

// laneArtifact runs the lane traversal for one handler of the linked
// program under spec's allowance table (nil spec → empty). The leader
// and the fleet worker compute lane artifacts only through here.
func laneArtifact(linked *global.Program, handler string, spec *flash.Spec) artifact {
	var allow map[string]flash.LaneVector
	if spec != nil {
		allow = spec.Allowance
	}
	if allow == nil {
		allow = map[string]flash.LaneVector{}
	}
	return mkArtifact(checkers.CheckLanesCov(linked, &flash.Spec{Hardware: []string{handler}, Allowance: allow}))
}

// FlashJobs builds the job list for the built-in FLASH suite under a
// protocol spec, in checkers.All() order. SM checkers become
// per-function jobs, the lane checker becomes the inter-procedural
// job, and the rest run as whole-program passes; every job's Options
// binds the spec and the engine options its SM runs with.
func FlashJobs(spec *flash.Spec) []Job {
	specOpt := SpecHash(spec)
	var jobs []Job
	for _, chk := range checkers.All() {
		job := Job{Name: chk.Name(), Version: chk.Version(), Options: specOpt}
		if chk.Name() == "lanes" {
			job.Lanes = true
		} else if prov, ok := chk.(checkers.SMProvider); ok {
			sm, _ := prov.BuildSM(spec)
			job.SM = sm
			job.Options = hashStrings(specOpt, fmt.Sprintf("correlate=%v", sm.CorrelateBranches))
		} else {
			prov := chk.(checkers.CoverageProvider)
			job.RunCov = func(p *core.Program) ([]engine.Report, []*engine.Coverage) {
				return prov.CheckCov(p, spec)
			}
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// ConventionSpec derives a protocol spec from the h_*/sw_* naming
// convention, for checking code without an explicit specification
// (cmd/mcheck and cmd/mcheckd both run under it).
func ConventionSpec(prog *core.Program) *flash.Spec {
	spec := &flash.Spec{
		Protocol:        "cli",
		Allowance:       map[string]flash.LaneVector{},
		NoStack:         map[string]bool{},
		BufferFreeFns:   map[string]bool{},
		BufferUseFns:    map[string]bool{},
		CondFreeFns:     map[string]bool{},
		DirWritebackFns: map[string]bool{},
	}
	for _, fn := range prog.Fns {
		switch flash.ClassifyName(fn.Name) {
		case flash.HardwareHandler:
			spec.Hardware = append(spec.Hardware, fn.Name)
		case flash.SoftwareHandler:
			spec.Software = append(spec.Software, fn.Name)
		}
	}
	return spec
}

// SpecHash content-addresses a protocol spec (deterministically:
// encoding/json sorts map keys).
func SpecHash(spec *flash.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("sched: marshal spec: %v", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// hashStrings hashes its parts with unambiguous boundaries.
func hashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
