package sched

// This file is the scheduler's half of the distributed fleet: the
// Remote hook the pipeline dispatches cache-missed tasks through, the
// source Bundle a dispatcher publishes so stateless workers can parse
// the same program, and the Executor that cmd/mcheckworker runs
// fleet.Descriptors with. The executor is deliberately paranoid —
// every descriptor carries redundant identity (function name, checker
// version, spec hash, output fingerprint), and the executor
// recomputes each from its own parse before writing anything under
// the dispatcher's output address. A mismatch means version skew or a
// divergent depot, and is rejected terminally (fleet.ErrReject) so
// the dispatcher falls straight back to local execution instead of
// retrying a task every worker would refuse.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/fleet"
	"flashmc/internal/global"
	"flashmc/internal/obs"
)

// Remote executes one serialized task somewhere else and returns the
// artifact bytes. Implemented by *fleet.Dispatcher; any error means
// the caller should run the task locally. A non-nil tracer receives
// the dispatch-side spans and the remote execution spans, merged onto
// the caller's time base.
type Remote interface {
	Do(ctx context.Context, desc *fleet.Descriptor, tr *obs.Tracer) ([]byte, error)
}

// PutBundle publishes a request's source snapshot to the shared depot
// so fleet workers can parse the same program the dispatcher did. It
// must be called before Check dispatches any descriptor for srcHash.
func PutBundle(d *depot.Depot, srcHash string, files map[string]string, roots []string, spec *flash.Spec) error {
	return d.PutJSON(fleet.BundleKey(srcHash, SpecHash(spec)), fleet.Bundle{
		Files: files, Roots: roots, Spec: spec,
	})
}

// Executor runs fleet descriptors on a worker: read the source bundle
// from the shared depot, parse (through the same ProgramCache the
// daemon uses, so repeated tasks for one request parse once),
// cross-check every piece of descriptor identity against the local
// parse, compute the artifact, and store it under the descriptor's
// output key.
type Executor struct {
	Depot    *depot.Depot
	Programs *ProgramCache
	// Producer identifies this worker in provenance records (its
	// listen address); empty falls back to the local pid form.
	Producer string

	mu     sync.Mutex
	linked map[string]*global.Program // srcHash -> linked call graph
	order  []string                   // linked-cache eviction order (FIFO)
}

// NewExecutor returns an executor over the worker's depot.
func NewExecutor(d *depot.Depot) *Executor {
	return &Executor{Depot: d, Programs: &ProgramCache{Depot: d}}
}

// reject wraps a terminal descriptor failure.
func reject(format string, args ...any) error {
	return fmt.Errorf("%w: %s", fleet.ErrReject, fmt.Sprintf(format, args...))
}

// taskSpanName names a descriptor's root execution span by its
// identity, so a merged trace reads like the scheduler's task list.
func taskSpanName(d *fleet.Descriptor) string {
	switch d.Kind {
	case fleet.KindSM:
		return "sm " + d.Checker + " " + d.Fn
	case fleet.KindSummary:
		return "summary " + d.Fn
	case fleet.KindLanes:
		return "lanes " + d.Handler
	case fleet.KindGlobal:
		return "glob " + d.Checker
	}
	return "task " + d.Kind
}

// Execute runs one descriptor. Errors wrapping fleet.ErrReject are
// terminal (version skew, identity mismatch); any other error is
// transient (bundle not yet visible in the depot, IO) and worth
// retrying on another worker. A non-nil tracer records the worker's
// execution spans: bundle fetch, frontend parse (cache misses only),
// the computation itself, and the depot put.
func (e *Executor) Execute(ctx context.Context, desc *fleet.Descriptor, tr *obs.Tracer) ([]byte, error) {
	if err := desc.Validate(); err != nil {
		return nil, reject("%v", err)
	}
	root := tr.StartSpan(taskSpanName(desc), 0).Cat("exec").Arg("out", desc.Output.ID())
	if desc.ParentSpan != "" {
		root.Arg("task", desc.ParentSpan)
	}
	defer root.End()
	bsp := tr.StartSpan("bundle", 0)
	var b fleet.Bundle
	ok := e.Depot.GetJSON(fleet.BundleKey(desc.SrcHash, desc.SpecOpt), &b)
	bsp.End()
	if !ok {
		return nil, fmt.Errorf("sched: bundle %.12s not in depot (is the depot shared?)", desc.SrcHash)
	}
	if got := SpecHash(b.Spec); got != desc.SpecOpt {
		return nil, reject("bundle spec hash %.12s, descriptor wants %.12s", got, desc.SpecOpt)
	}
	cp, _, err := e.Programs.Load(desc.SrcHash, func() (*core.Program, error) {
		fsp := tr.StartSpan("frontend", 0)
		defer fsp.End()
		return core.Load("fleet", cpp.Layered(cpp.MapSource(b.Files), flash.HeaderSource()), b.Roots)
	})
	if err != nil {
		return nil, reject("parse: %v", err)
	}
	p := cp.Prog
	if len(p.ParseErrors) > 0 {
		return nil, reject("bundle has %d parse errors (dispatcher checks clean programs only)", len(p.ParseErrors))
	}

	ct := cachedTask[any]{key: desc.Output}
	switch desc.Kind {
	case fleet.KindSummary:
		if err := e.checkFn(cp, desc); err != nil {
			return nil, err
		}
		if err := e.checkLanesIdentity(desc, desc.SpecOpt); err != nil {
			return nil, err
		}
		ct.compute = func() any { return global.FromCFG(p.Graphs[desc.FnIndex], checkers.LaneAnnotator) }

	case fleet.KindSM:
		if err := e.checkFn(cp, desc); err != nil {
			return nil, err
		}
		sm, opts, err := e.buildSM(p, desc, b.Spec)
		if err != nil {
			return nil, err
		}
		if desc.Output.Options != opts {
			return nil, reject("options %.12s, worker computes %.12s", desc.Output.Options, opts)
		}
		ct.compute = func() any { return mkArtifact(engine.RunCov(p.Graphs[desc.FnIndex], sm)) }

	case fleet.KindGlobal:
		if cp.ProgramFP != desc.Output.Source {
			return nil, reject("program fingerprint %.12s, descriptor wants %.12s", cp.ProgramFP, desc.Output.Source)
		}
		chk := registryChecker(desc.Checker)
		if chk == nil {
			return nil, reject("unknown checker %q", desc.Checker)
		}
		prov, ok := chk.(checkers.CoverageProvider)
		if _, isSM := chk.(checkers.SMProvider); isSM || !ok || chk.Name() == "lanes" {
			return nil, reject("checker %q is not a whole-program pass", desc.Checker)
		}
		if chk.Version() != desc.CheckerVersion {
			return nil, reject("checker %s is %s here, descriptor pinned %s", desc.Checker, chk.Version(), desc.CheckerVersion)
		}
		if desc.Output.Options != desc.SpecOpt {
			return nil, reject("whole-program options %.12s, want spec hash %.12s", desc.Output.Options, desc.SpecOpt)
		}
		ct.compute = func() any {
			reports, covs := prov.CheckCov(p, b.Spec)
			return mkArtifact(reports, covs...)
		}

	case fleet.KindLanes:
		if err := e.checkLanesIdentity(desc, desc.SpecOpt); err != nil {
			return nil, err
		}
		linked := e.link(desc.SrcHash, p)
		reach := linked.Reachable([]string{desc.Handler})
		fpByFn := make(map[string]string, len(p.Fns))
		for i, fn := range p.Fns {
			if _, ok := fpByFn[fn.Name]; !ok {
				fpByFn[fn.Name] = cp.Fingerprints[i]
			}
		}
		if got := reachFingerprint(desc.Handler, reach, fpByFn); got != desc.Output.Source {
			return nil, reject("handler %s cone fingerprint %.12s, descriptor wants %.12s", desc.Handler, got, desc.Output.Source)
		}
		ct.compute = func() any { return laneArtifact(linked, desc.Handler, b.Spec) }
		ct.deps = func() []string {
			return summaryDepKeys(reach, fpByFn, desc.CheckerVersion, desc.Output.Options)
		}

	default:
		return nil, reject("unknown task kind %q", desc.Kind)
	}
	producer := e.Producer
	if producer == "" {
		producer = localProducer
	}
	_, raw, err := ct.computeStore(e.Depot, tr, producer, desc.TraceID)
	return raw, err
}

// checkFn validates a per-function descriptor against the local
// parse: the index is in range, names the function the dispatcher
// meant, and that function's fingerprint is the artifact's source.
func (e *Executor) checkFn(cp *CachedProgram, desc *fleet.Descriptor) error {
	p := cp.Prog
	if desc.FnIndex < 0 || desc.FnIndex >= len(p.Fns) {
		return reject("fn index %d out of range (%d functions)", desc.FnIndex, len(p.Fns))
	}
	if got := p.Fns[desc.FnIndex].Name; got != desc.Fn {
		return reject("fn %d is %s here, descriptor names %s", desc.FnIndex, got, desc.Fn)
	}
	if got := cp.Fingerprints[desc.FnIndex]; got != desc.Output.Source {
		return reject("fn %s fingerprint %.12s, descriptor wants %.12s", desc.Fn, got, desc.Output.Source)
	}
	return nil
}

// checkLanesIdentity validates a summary/lane descriptor's checker
// identity: the lanes checker, at the version this worker runs, under
// the bundle's spec options.
func (e *Executor) checkLanesIdentity(desc *fleet.Descriptor, specOpt string) error {
	if desc.Checker != "lanes" || desc.Output.Checker != "lanes" {
		return reject("%s task for checker %q, want lanes", desc.Kind, desc.Checker)
	}
	chk := registryChecker("lanes")
	if chk.Version() != desc.CheckerVersion {
		return reject("lanes is %s here, descriptor pinned %s", chk.Version(), desc.CheckerVersion)
	}
	if desc.Output.Options != specOpt {
		return reject("lanes options %.12s, want spec hash %.12s", desc.Output.Options, specOpt)
	}
	return nil
}

// buildSM resolves the descriptor's state machine — ad-hoc source or
// registry checker — and returns it with the options fingerprint the
// output key must carry.
func (e *Executor) buildSM(p *core.Program, desc *fleet.Descriptor, spec *flash.Spec) (*engine.SM, string, error) {
	if desc.AdhocSrc != "" {
		mp, err := p.CompileChecker(desc.AdhocSrc)
		if err != nil {
			return nil, "", reject("ad-hoc checker: %v", err)
		}
		job := AdhocJob(mp, desc.AdhocSrc, desc.SpecOpt)
		if job.Version != desc.CheckerVersion {
			return nil, "", reject("ad-hoc version %s, descriptor pinned %s", job.Version, desc.CheckerVersion)
		}
		if job.Name != desc.Checker {
			return nil, "", reject("ad-hoc checker compiles to %q, descriptor names %q", job.Name, desc.Checker)
		}
		return job.SM, job.Options, nil
	}
	chk := registryChecker(desc.Checker)
	if chk == nil {
		return nil, "", reject("unknown checker %q", desc.Checker)
	}
	prov, ok := chk.(checkers.SMProvider)
	if !ok {
		return nil, "", reject("checker %q is not a state machine", desc.Checker)
	}
	if chk.Version() != desc.CheckerVersion {
		return nil, "", reject("checker %s is %s here, descriptor pinned %s", desc.Checker, chk.Version(), desc.CheckerVersion)
	}
	sm, _ := prov.BuildSM(spec)
	return sm, hashStrings(desc.SpecOpt, fmt.Sprintf("correlate=%v", sm.CorrelateBranches)), nil
}

// link returns the whole-protocol call graph for srcHash, building
// and caching it on first use (lane tasks for one request share it).
func (e *Executor) link(srcHash string, p *core.Program) *global.Program {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.linked == nil {
		e.linked = map[string]*global.Program{}
	}
	if lp, ok := e.linked[srcHash]; ok {
		return lp
	}
	summaries := make([]*global.Summary, len(p.Fns))
	for i := range p.Fns {
		summaries[i] = global.FromCFG(p.Graphs[i], checkers.LaneAnnotator)
	}
	lp, _ := global.Link(summaries) // link errors are reported dispatcher-side
	e.linked[srcHash] = lp
	e.order = append(e.order, srcHash)
	for len(e.order) > 4 {
		delete(e.linked, e.order[0])
		e.order = e.order[1:]
	}
	return lp
}

// remoteRun is one Check call's dispatch context: the source address,
// spec hash, trace identity, and tracer every descriptor of the
// request shares.
type remoteRun struct {
	r       Remote
	srcHash string
	specOpt string
	traceID string
	tr      *obs.Tracer
}

// do dispatches one task to the fleet: it completes d with the
// request-wide fields, the output key and the checker identity, then
// decodes the worker's artifact into v. false means the fleet could
// not produce the artifact and the caller computes it locally
// (counted as a fallback). parent names the scheduler task, tying the
// worker's spans to the leader's dispatch spans for the same task id.
func (rr *remoteRun) do(parent string, out depot.Key, d *fleet.Descriptor, v any) bool {
	d.Format, d.SrcHash, d.SpecOpt = fleet.DescFormat, rr.srcHash, rr.specOpt
	d.Output, d.Checker, d.CheckerVersion = out, out.Checker, out.Version
	d.TraceID, d.ParentSpan = rr.traceID, parent
	raw, err := rr.r.Do(context.Background(), d, rr.tr)
	if err == nil && json.Unmarshal(raw, v) == nil {
		return true
	}
	fleet.CountFallback(d.ParentSpan, d.TraceID)
	return false
}

// registryChecker finds a built-in checker by name.
func registryChecker(name string) checkers.Checker {
	for _, chk := range checkers.All() {
		if chk.Name() == name {
			return chk
		}
	}
	return nil
}
