// mcheck is the xg++ analogue: it applies metal checkers (and the
// built-in FLASH suite) to protocol-C sources.
//
// Usage:
//
//	mcheck [-I dir]... [-checker file.metal]... [-flash] [-j N]
//	       [-cache DIR] [-cache-shards N] [-cache-max-bytes N]
//	       [-triage slice|sym] file.c...
//	mcheck -emit summaries.json file.c...     (local pass, paper §3.2)
//	mcheck -link summaries.json...            (global lane pass, §7)
//
// Checkers execute through the internal/sched parallel scheduler: -j
// sizes the worker pool (default GOMAXPROCS) and -cache names a
// content-addressed artifact depot reused across runs, so a re-check
// after an edit re-analyzes only the changed functions and their
// call-graph dependents. cmd/mcheckd serves the same path over HTTP.
// -cache-shards fans the depot over N independently locked shard
// roots (0 adopts the directory's existing layout); -cache-max-bytes
// bounds the depot after the run, evicting least-recently-used
// artifacts first.
//
// With -flash the built-in eight-checker FLASH suite runs using the
// naming-convention protocol spec (h_* hardware handlers, sw_*
// software handlers). Each -checker flag compiles and runs one metal
// program. Diagnostics print one per line as file:line:col: message.
//
// Observability: -why prints each report's witness trace (the ordered
// rule firings and branch refinements along the failing path), -trace
// writes a Chrome trace_event JSON file of the run (load it in
// chrome://tracing or ui.perfetto.dev), -stats prints process metrics
// to stderr, and -metrics writes them in Prometheus text format.
// -coverage prints each checker's dynamic rule/state coverage and
// wall-time attribution; -coverage-out writes the coverage/v1 JSON
// artifact (validated by obscheck -coverage).
//
// Provenance: -explain prints, for every report, the artifact it was
// assembled from, this run's cache decision for that artifact, the
// producer (local pid or worker address), checker version, and wall
// cost. Each run against a persistent -cache appends an entry to the
// depot's run ledger; -runs lists the ledger and -diff OLD,NEW
// compares two entries — appeared/disappeared reports (with witness
// traces) to stdout, perf deltas to stderr — with no input files.
//
// With -triage every SM report is ranked by path feasibility before
// printing: 'slice' replays reports over loop-bounded paths and
// demotes those firing only on branch-contradictory paths to
// likely-fp; 'sym' additionally runs a bounded symbolic evaluator
// over each firing path and demotes reports whose every path is
// provably unsatisfiable to infeasible. Certain reports print first.
// Verdicts are cached in -cache keyed by program fingerprint, checker,
// triage version, and options, so a warm re-triage skips the replay.
//
// With -lint every checker state machine is linted (package lint)
// before anything runs; lint errors — dead rules, unreachable states,
// patterns outside the protocol vocabulary — abort the run, so a
// broken checker cannot silently report nothing (the paper's §11
// failure mode).
//
// -emit/-link reproduce the paper's file-based inter-procedural
// workflow: the local pass annotates each send with its lane and
// writes per-function flow graphs; the link pass merges any number of
// summary files into a whole-protocol call graph and runs the lane
// quota traversal (with default allowance 1/1/1/1 per handler).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/cover"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/global"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
	"flashmc/internal/sched"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var includes, checkerFiles stringList
	flag.Var(&includes, "I", "include search directory (repeatable)")
	flag.Var(&checkerFiles, "checker", "metal checker source file (repeatable)")
	flashSuite := flag.Bool("flash", false, "run the built-in FLASH checker suite")
	lintSMs := flag.Bool("lint", false, "lint checker state machines before running; exit on lint errors")
	verbose := flag.Bool("v", false, "print per-checker summaries and cache statistics")
	emit := flag.String("emit", "", "local pass: write annotated flow-graph summaries to this file")
	link := flag.Bool("link", false, "global pass: arguments are summary files; run the lane checker")
	workers := flag.Int("j", 0, "parallel analysis workers (default GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "artifact depot directory; reuses results for unchanged functions across runs")
	cacheShards := flag.Int("cache-shards", 0, "depot shard count (0: adopt the directory's existing layout)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "if set, evict least-recently-used depot artifacts beyond this many bytes after the run")
	why := flag.Bool("why", false, "print each report's witness trace (the path steps that led to it)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
	stats := flag.Bool("stats", false, "print process metrics to stderr after the run")
	metricsOut := flag.String("metrics", "", "write Prometheus text exposition of process metrics to this path")
	coverage := flag.Bool("coverage", false, "collect per-checker rule/state coverage; print a table and timing attribution to stderr")
	coverageOut := flag.String("coverage-out", "", "write the coverage/v1 JSON artifact to this path (implies -coverage)")
	triageFlag := flag.String("triage", "", "rank reports by path feasibility: 'slice' (correlated-branch slicing) or 'sym' (slicing plus bounded symbolic evaluation); verdicts cache in -cache")
	runsList := flag.Bool("runs", false, "list the -cache depot's run ledger and exit (takes no input files)")
	diffSpec := flag.String("diff", "", "compare two run-ledger entries OLD,NEW from -cache and exit: report changes to stdout (empty = identical), perf deltas to stderr")
	explain := flag.Bool("explain", false, "after the run, print each report's provenance (artifact, cache decision, producer, checker version, cost) to stderr")
	versionSalt := flag.String("version-salt", "", "append this salt to every checker version (testing aid: forces checker-version-bump cache misses)")
	flag.Parse()

	triageMode, ok := parseTriageMode(*triageFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "mcheck: -triage %q: want 'slice' or 'sym'\n", *triageFlag)
		os.Exit(2)
	}

	// -j must be a positive worker count; an unset (or zero) flag means
	// "use every CPU" rather than silently misbehaving.
	jSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "j" {
			jSet = true
		}
	})
	if jSet && *workers < 1 {
		fmt.Fprintf(os.Stderr, "mcheck: -j %d: worker count must be >= 1\n", *workers)
		os.Exit(2)
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}

	// Ledger-only modes read the depot directly and take no input
	// files; they must be dispatched before the no-input check.
	if *runsList || *diffSpec != "" {
		if *cacheDir == "" {
			fail("-runs/-diff read the run ledger from a persistent depot; pass -cache DIR")
		}
		store, err := depot.OpenSharded(*cacheDir, *cacheShards)
		if err != nil {
			fail("%v", err)
		}
		if *runsList {
			os.Exit(runsCmd(store))
		}
		os.Exit(diffCmd(store, *diffSpec))
	}

	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "mcheck: no input files")
		flag.Usage()
		os.Exit(2)
	}

	if *link {
		os.Exit(linkPass(files))
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		tracer.SetProcess(os.Getpid(), "mcheck")
	}

	parseSp := tracer.StartSpan("parse", 0)
	prog, err := core.Load("mcheck", cpp.Layered(cpp.OSSource{}, flash.HeaderSource()), files, includes...)
	parseSp.End()
	if err != nil {
		fail("load: %v", err)
	}
	for _, e := range prog.ParseErrors {
		fmt.Fprintf(os.Stderr, "mcheck: %v\n", e)
	}
	if len(prog.ParseErrors) > 0 {
		os.Exit(1)
	}

	if *emit != "" {
		out, err := os.Create(*emit)
		if err != nil {
			fail("%v", err)
		}
		defer out.Close()
		if err := global.Write(out, checkers.Summarize(prog)); err != nil {
			fail("emit: %v", err)
		}
		fmt.Printf("emitted %d function summaries to %s\n", len(prog.Fns), *emit)
		return
	}

	// Assemble the scheduler job list: ad-hoc metal checkers first
	// (in flag order), then the built-in suite — the historical run
	// order, which fixes report assembly. Lint metadata (SM + decl
	// table) is collected alongside so broken checkers fail loudly
	// before anything runs (the paper's §11 failure mode).
	type lintTarget struct {
		sm    *engine.SM
		decls map[string]string
	}
	var (
		jobs        []sched.Job
		lintTargets []lintTarget
	)
	// Triage keys machines and cache versions by the name reports
	// carry (sm.Name, which can differ from the registry name).
	triageSMs := map[string]*engine.SM{}
	triageVersions := map[string]string{}

	spec := sched.ConventionSpec(prog)
	specOpt := sched.SpecHash(spec)
	for _, cf := range checkerFiles {
		src, err := os.ReadFile(cf)
		if err != nil {
			fail("%v", err)
		}
		mp, err := prog.CompileChecker(string(src))
		if err != nil {
			fail("%s: %v", cf, err)
		}
		job := sched.AdhocJob(mp, string(src), specOpt)
		jobs = append(jobs, job)
		lintTargets = append(lintTargets, lintTarget{sm: mp.SM, decls: mp.Decls})
		triageSMs[mp.SM.Name] = mp.SM
		triageVersions[mp.SM.Name] = job.Version
	}
	if *flashSuite {
		jobs = append(jobs, sched.FlashJobs(spec)...)
		for _, chk := range checkers.All() {
			if prov, ok := chk.(checkers.SMProvider); ok {
				sm, decls := prov.BuildSM(spec)
				lintTargets = append(lintTargets, lintTarget{sm: sm, decls: decls})
				triageSMs[sm.Name] = sm
				triageVersions[sm.Name] = chk.Version()
			}
		}
	}

	if *versionSalt != "" {
		// Salting every version makes each depot key miss with reason
		// checker-version-bump while leaving the computed reports
		// unchanged — ci.sh uses it to gate miss attribution.
		for i := range jobs {
			jobs[i].Version += "+" + *versionSalt
		}
		for name := range triageVersions {
			triageVersions[name] += "+" + *versionSalt
		}
	}

	if *lintSMs {
		vocab := lint.FlashVocab()
		for _, fn := range prog.Fns {
			vocab.Add(fn.Name)
		}
		lintErrors := 0
		for _, lt := range lintTargets {
			diags := lint.CheckSM(lint.Target{SM: lt.sm, Decls: lt.decls, Vocab: vocab})
			for _, d := range diags {
				if d.Severity >= lint.Warn || *verbose {
					fmt.Fprintf(os.Stderr, "mcheck: lint: %s\n", d)
				}
			}
			lintErrors += len(lint.Errors(diags))
		}
		if lintErrors > 0 {
			fail("lint: %d error(s); not running checkers", lintErrors)
		}
	}

	// The CLI and mcheckd share this execution path: the depot-backed
	// parallel scheduler. Without -cache the depot lives in memory
	// for this one run.
	store, err := depot.OpenSharded(*cacheDir, *cacheShards)
	if err != nil {
		fail("%v", err)
	}
	var covSet *cover.Set
	if *coverage || *coverageOut != "" {
		covSet = cover.NewSet()
	}
	analyzer := &sched.Analyzer{Depot: store, Workers: *workers, Tracer: tracer, Coverage: covSet}
	req := sched.Request{Prog: prog, Spec: spec, Jobs: jobs}
	res, err := analyzer.Check(req)
	if err != nil {
		fail("%v", err)
	}
	// Record the run in the depot's ledger. Only a persistent depot is
	// worth recording into: an in-memory ledger dies with the process.
	var runEntry *sched.RunEntry
	if *cacheDir != "" {
		runEntry = sched.NewRunEntry(&req, res, covSet)
		if err := sched.AppendRun(store, runEntry); err != nil {
			fmt.Fprintf(os.Stderr, "mcheck: ledger: %v\n", err)
			runEntry = nil
		}
	}
	reports := res.Reports
	if *verbose {
		byChecker := map[string]int{}
		for _, r := range reports {
			byChecker[r.SM]++
		}
		for _, j := range jobs {
			fmt.Printf("checker %s: %d reports\n", j.Name, byChecker[j.Name])
		}
		st := res.Stats
		fmt.Printf("analysis: %d functions, %d tasks, %d cache hits, %d misses (%.0f%% hit rate), %d re-analyzed, %s elapsed\n",
			st.Functions, st.Tasks, st.CacheHits, st.CacheMisses,
			100*float64(st.CacheHits)/float64(max(1, st.CacheHits+st.CacheMisses)),
			len(st.Reanalyzed), st.Elapsed.Round(1000000))
		if runEntry != nil {
			fmt.Printf("run %s recorded (%s)\n", runEntry.ID, runEntry.DecisionLine())
		}
	}

	if triageMode != "" {
		// Second triage rung: rank every report by path feasibility,
		// serving verdicts from the depot when the program, checker,
		// and triage options are unchanged.
		ranked, tst := analyzer.TriageReports(sched.TriageRequest{Prog: prog,
			SMs: triageSMs, Versions: triageVersions, Reports: reports,
			Options: lint.TriageOptions{Mode: triageMode}})
		if *verbose {
			fmt.Printf("triage: %d verdict groups from cache, %d recomputed\n",
				tst.CacheHits, tst.CacheMisses)
		}
		lint.SortRanked(ranked)
		for _, r := range ranked {
			fmt.Printf("%s: [%s] %s (%s: %s)\n", r.Pos, r.SM, r.Msg, r.Confidence, r.Reason)
			if *why {
				for i, s := range r.Trace {
					fmt.Printf("    #%d %s\n", i+1, s)
				}
			}
		}
		// Triage re-ranks reports, severing the per-report provenance
		// index; explain at artifact granularity instead.
		if *explain {
			explainArtifacts(store, res)
		}
	} else {
		// Sort an index permutation instead of the reports themselves,
		// so each printed report keeps its Result.RefIdx provenance link
		// for -explain.
		order := make([]int, len(reports))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := reports[order[i]], reports[order[j]]
			if a.Pos.File != b.Pos.File {
				return a.Pos.File < b.Pos.File
			}
			return a.Pos.Line < b.Pos.Line
		})
		for _, ri := range order {
			r := reports[ri]
			fmt.Printf("%s: [%s] %s\n", r.Pos, r.SM, r.Msg)
			if *why {
				for i, s := range r.Trace {
					fmt.Printf("    #%d %s\n", i+1, s)
				}
			}
			if *explain {
				explainReport(store, res, ri)
			}
		}
	}

	// Enforce the byte budget after the run (and before the -stats /
	// -metrics dumps, so depot_gc_evicted_bytes_total reflects it):
	// this run's own artifacts count, so a depot shared across runs
	// stays bounded no matter who wrote last.
	if *cacheMaxBytes > 0 {
		if _, err := store.GC(0, *cacheMaxBytes); err != nil {
			fail("cache gc: %v", err)
		}
	}

	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		if err := tracer.WriteJSON(out); err != nil {
			out.Close()
			fail("trace: %v", err)
		}
		if err := out.Close(); err != nil {
			fail("trace: %v", err)
		}
	}
	if covSet != nil {
		snap := covSet.Snapshot()
		fmt.Fprintln(os.Stderr, "coverage:")
		snap.WriteTable(os.Stderr)
		// Timing attribution is live-only: on a fully warm cache there is
		// nothing to attribute and the section is silent.
		if timings := covSet.Timings(); len(timings) > 0 {
			fmt.Fprintln(os.Stderr, "timings:")
			for _, t := range timings {
				if t.Seconds == 0 && t.SlowestFn == "" {
					continue
				}
				fmt.Fprintf(os.Stderr, "%-16s runs=%d total=%.3fs p50=%.3fms p95=%.3fms p99=%.3fms slowest=%s (%.3fms)\n",
					t.Checker, t.Runs, t.Seconds,
					t.P50*1000, t.P95*1000, t.P99*1000,
					t.SlowestFn, t.SlowestSeconds*1000)
			}
		}
		if *coverageOut != "" {
			out, err := os.Create(*coverageOut)
			if err != nil {
				fail("%v", err)
			}
			if err := snap.WriteJSON(out); err != nil {
				out.Close()
				fail("coverage: %v", err)
			}
			if err := out.Close(); err != nil {
				fail("coverage: %v", err)
			}
		}
	}
	if *metricsOut != "" {
		out, err := os.Create(*metricsOut)
		if err != nil {
			fail("%v", err)
		}
		if err := obs.Default.WritePrometheus(out); err != nil {
			out.Close()
			fail("metrics: %v", err)
		}
		if err := out.Close(); err != nil {
			fail("metrics: %v", err)
		}
	}
	if *stats {
		snap := obs.Default.Snapshot()
		names := make([]string, 0, len(snap))
		for n := range snap {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "%s %g\n", n, snap[n])
		}
	}

	if len(reports) > 0 {
		os.Exit(1)
	}
}

// linkPass merges summary files and runs the global lane traversal.
func linkPass(files []string) int {
	var sums []*global.Summary
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			fail("%v", err)
		}
		s, err := global.Read(r)
		r.Close()
		if err != nil {
			fail("%s: %v", f, err)
		}
		sums = append(sums, s...)
	}
	prog, errs := global.Link(sums)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "mcheck: link: %v\n", e)
	}
	spec := &flash.Spec{Protocol: "cli", Allowance: map[string]flash.LaneVector{}}
	for fn := range prog.Funcs {
		switch flash.ClassifyName(fn) {
		case flash.HardwareHandler:
			spec.Hardware = append(spec.Hardware, fn)
		case flash.SoftwareHandler:
			spec.Software = append(spec.Software, fn)
		}
	}
	sort.Strings(spec.Hardware)
	sort.Strings(spec.Software)
	reports := checkers.CheckLanes(prog, spec)
	for _, r := range reports {
		fmt.Printf("%s: [lanes] %s\n", r.Pos, r.Msg)
	}
	fmt.Printf("linked %d functions, %d handlers, %d report(s)\n",
		len(prog.Funcs), len(spec.Hardware)+len(spec.Software), len(reports))
	if len(reports) > 0 {
		return 1
	}
	return 0
}

// parseTriageMode maps the -triage flag value to a lint mode; the
// empty string keeps triage off.
func parseTriageMode(v string) (lint.TriageMode, bool) {
	switch v {
	case "":
		return "", true
	case "slice":
		return lint.ModeSlice, true
	case "sym":
		return lint.ModeSym, true
	}
	return "", false
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcheck: "+format+"\n", args...)
	os.Exit(1)
}
