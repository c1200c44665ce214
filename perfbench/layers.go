package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cc/sem"
	"flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
	"flashmc/internal/cfg"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/global"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
	"flashmc/internal/sched"
)

// recorder keeps the traced run's spans in memory: every layer call
// becomes one leaf span (name, start, end, parent protocol span) on
// the tracer, and its wall time and heap allocation accumulate per
// layer.
type recorder struct {
	tr     *obs.Tracer
	leaves [][2]time.Time
	wall   map[string]float64 // layer → seconds
	alloc  map[string]float64 // layer → MB allocated
	count  map[string]float64 // layer work counts (tokens, nodes, ...)
}

func newRecorder() *recorder {
	tr := obs.NewTracer()
	tr.SetProcess(1, "perfbench")
	return &recorder{tr: tr, wall: map[string]float64{}, alloc: map[string]float64{}, count: map[string]float64{}}
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// span times one call into a layer, under the named parent span.
func (r *recorder) span(layer, parent string, fn func()) {
	a := heapAllocBytes()
	start := time.Now()
	fn()
	end := time.Now()
	r.alloc[layer] += (heapAllocBytes() - a) / 1e6
	r.wall[layer] += end.Sub(start).Seconds()
	r.leaves = append(r.leaves, [2]time.Time{start, end})
	r.tr.RecordSpan(layer, "layer", 1, start, end.Sub(start), map[string]any{"parent": parent})
}

// covered is the wall time inside [from, to] that some leaf span
// covers.
func (r *recorder) covered(from, to time.Time) float64 {
	iv := append([][2]time.Time(nil), r.leaves...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	total := 0.0
	var cur [2]time.Time
	open := false
	for _, x := range iv {
		if x[1].Before(from) || x[0].After(to) {
			continue
		}
		if open && !x[0].After(cur[1]) {
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
			continue
		}
		if open {
			total += cur[1].Sub(cur[0]).Seconds()
		}
		cur, open = x, true
	}
	if open {
		total += cur[1].Sub(cur[0]).Seconds()
	}
	return total
}

// layeredProtocol is one protocol's reference data for the traced run:
// what core.Load and the scheduler produce, which the layer-by-layer
// replay must reproduce.
type layeredProtocol struct {
	p       *flashgen.Protocol
	tmpl    *core.Program // core.Load's program (unexported state reused)
	progFP  string
	streams map[string][]engine.Report // checker → reports, scheduler path
	reports []engine.Report
}

// frontend replays core.Load one layer call at a time and returns a
// program equivalent to lp.tmpl.
func (r *recorder) frontend(lp *layeredProtocol) (*core.Program, []string) {
	p := lp.p
	src := p.Source()
	env := sem.NewEnv()
	checker := sem.NewChecker(env)
	var carried map[string]types.Type
	var files []*ast.File
	var problems []string
	for _, rf := range p.RootFiles {
		pp := cpp.New(src)
		var text string
		r.span("cpp", p.Name, func() { text = pp.Process(rf) })
		r.count["cpp.out_bytes"] += float64(len(text))
		lx := lexer.New(rf, text)
		var toks []token.Token
		r.span("lexer", p.Name, func() { toks = lx.All() })
		r.count["lexer.tokens"] += float64(len(toks))
		cp := parser.New(toks, parser.Config{Typedefs: carried})
		var f *ast.File
		r.span("parser", p.Name, func() { f = cp.File(rf) })
		if n := len(pp.Errors()) + len(lx.Errors()) + len(cp.Errors()); n > 0 {
			problems = append(problems, fmt.Sprintf("%s: %s: %d frontend errors", p.Name, rf, n))
		}
		carried = cp.Typedefs()
		for k, v := range cp.EnumConsts() {
			env.EnumConsts[k] = v
		}
		r.span("sem", p.Name, func() { checker.Check(f) })
		files = append(files, f)
	}
	var fns []*ast.FuncDecl
	var graphs []*cfg.Graph
	r.span("cfg", p.Name, func() {
		for _, f := range files {
			for _, fn := range f.Funcs() {
				fns = append(fns, fn)
				graphs = append(graphs, cfg.Build(fn))
			}
		}
	})
	for _, g := range graphs {
		r.count["cfg.nodes"] += float64(len(g.Nodes))
	}
	// The replayed program takes core.Load's unexported state (name
	// index, include source) from the reference; the fingerprint check
	// below proves the function list it indexes is the same.
	prog := *lp.tmpl
	prog.Files, prog.Fns, prog.Graphs, prog.Env = files, fns, graphs, env
	prog.Warnings, prog.ParseErrors = checker.Warnings(), nil
	return &prog, problems
}

// layeredPass replays one protocol check layer by layer and checks it
// reproduces core.Load's program fingerprint and the scheduler's
// per-checker report streams.
func (r *recorder) layeredPass(lp *layeredProtocol) []string {
	p := lp.p
	start := time.Now()
	defer func() { r.tr.RecordSpan(p.Name, "protocol", 1, start, time.Since(start), nil) }()
	prog, problems := r.frontend(lp)
	var fps []string
	var progFP string
	r.span("fingerprint", p.Name, func() {
		fps = sched.Fingerprints(prog)
		progFP = sched.ProgramFingerprint(prog, fps)
	})
	if progFP != lp.progFP {
		problems = append(problems, p.Name+": layered frontend's program fingerprint differs from core.Load's")
	}
	same := func(checker string, got []engine.Report) {
		want := lp.streams[checker]
		if (len(got) > 0 || len(want) > 0) && !bytes.Equal(encodeReports(got), encodeReports(want)) {
			problems = append(problems, fmt.Sprintf("%s: %s reports differ from the scheduler's", p.Name, checker))
		}
	}
	for _, chk := range checkers.All() {
		cov, ok := chk.(checkers.CoverageProvider)
		if !ok {
			problems = append(problems, chk.Name()+": no CheckCov")
			continue
		}
		var got []engine.Report
		switch _, isSM := chk.(checkers.SMProvider); {
		case chk.Name() == "lanes":
			got = r.lanes(prog, p.Spec)
		case isSM:
			r.span("engine."+chk.Name(), p.Name, func() { got, _ = cov.CheckCov(prog, p.Spec) })
		default:
			r.span("passes", p.Name, func() { got, _ = cov.CheckCov(prog, p.Spec) })
		}
		same(chk.Name(), got)
	}
	return problems
}

// lanes replays the inter-procedural pass the way the scheduler
// decomposes it: per-function summaries, the link, then one traversal
// per handler, with link errors appended as reports.
func (r *recorder) lanes(prog *core.Program, spec *flash.Spec) []engine.Report {
	var sums []*global.Summary
	r.span("lanes.summarize", prog.Name, func() { sums = checkers.Summarize(prog) })
	var linked *global.Program
	var linkErrs []error
	r.span("global.link", prog.Name, func() { linked, linkErrs = global.Link(sums) })
	allow := spec.Allowance
	if allow == nil {
		allow = map[string]flash.LaneVector{}
	}
	var out []engine.Report
	r.span("lanes.traverse", prog.Name, func() {
		for _, h := range append(append([]string{}, spec.Hardware...), spec.Software...) {
			got, _ := checkers.CheckLanesCov(linked, &flash.Spec{Hardware: []string{h}, Allowance: allow})
			out = append(out, got...)
		}
	})
	for _, e := range linkErrs {
		out = append(out, engine.Report{SM: "lanes", Rule: "link", Msg: e.Error(),
			Trace: engine.Witness(token.Pos{}, "link", e.Error())})
	}
	return out
}

// depotReplay reads every artifact a warm pass reads from the warm
// depot and writes each into a fresh on-disk depot.
func (r *recorder) depotReplay(warm, fresh *depot.Depot, keys []depot.Key) error {
	blobs := make([][]byte, len(keys))
	var ok bool
	r.span("depot.read", "depot", func() {
		for i, k := range keys {
			if blobs[i], ok = warm.Get(k); !ok {
				return
			}
		}
	})
	if !ok {
		return fmt.Errorf("depot replay: warm depot lacks an artifact")
	}
	var err error
	r.span("depot.write", "depot", func() {
		for i, k := range keys {
			if err = fresh.Put(k, blobs[i]); err != nil {
				return
			}
		}
	})
	for _, b := range blobs {
		r.count["depot.bytes"] += float64(len(b))
	}
	r.count["depot.artifacts"] += float64(len(keys))
	return err
}

// warmKeys lists the depot keys a warm check of res's program reads:
// every report artifact plus the lane summaries.
func warmKeys(prog *core.Program, req *sched.Request, res *sched.Result) []depot.Key {
	seen := map[string]bool{}
	var keys []depot.Key
	add := func(k depot.Key) {
		if id := k.ID(); !seen[id] {
			seen[id] = true
			keys = append(keys, k)
		}
	}
	for _, a := range res.Artifacts {
		add(a.Key)
	}
	for _, j := range req.Jobs {
		if !j.Lanes {
			continue
		}
		for _, fp := range sched.Fingerprints(prog) {
			add(depot.Key{Kind: "summary", Source: fp, Checker: "lanes", Version: j.Version, Options: j.Options})
		}
	}
	return keys
}

// triage ranks a protocol's reports with the sym ladder against an
// empty verdict cache.
func (r *recorder) triage(lp *layeredProtocol) {
	sms := map[string]*engine.SM{}
	versions := map[string]string{}
	for _, chk := range checkers.All() {
		if prov, ok := chk.(checkers.SMProvider); ok {
			sm, _ := prov.BuildSM(lp.p.Spec)
			sms[sm.Name] = sm
			versions[sm.Name] = chk.Version()
		}
	}
	an := &sched.Analyzer{}
	r.span("triage", lp.p.Name, func() {
		an.TriageReports(sched.TriageRequest{Prog: lp.tmpl, ProgramFP: lp.progFP, SMs: sms,
			Versions: versions, Reports: lp.reports, Options: lint.TriageOptions{Mode: lint.ModeSym}})
	})
}

// writeTrace writes the spans as Chrome trace JSON and validates the
// file with the program's own trace checker.
func (r *recorder) writeTrace(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := r.tr.WriteJSON(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	f, err = os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := obs.ValidateTraceStats(f)
	if err != nil {
		return 0, err
	}
	return st.Spans, nil
}
