// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. The companion
// cmd/paperbench binary prints the paper-vs-measured rows these
// benchmarks time.
package flashmc_test

import (
	"sync"
	"testing"

	"flashmc/internal/cc/parser"
	"flashmc/internal/cfg"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flashgen"
	"flashmc/internal/flashsim"
	"flashmc/internal/metal"
	"flashmc/internal/paper"
	"flashmc/internal/paths"
	"flashmc/internal/sched"
)

var (
	benchOnce sync.Once
	benchC    *paper.Corpus
	benchErr  error
)

func benchCorpus(b *testing.B) *paper.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		benchC, benchErr = paper.LoadCorpus(flashgen.Options{Seed: 1})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchC
}

// BenchmarkCorpusGeneration times synthesizing the five protocols plus
// common code (~80K lines of protocol C).
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		flashgen.Generate(flashgen.Options{Seed: int64(i + 1)})
	}
}

// BenchmarkFrontend times the full compile pipeline (cpp, lex, parse,
// typecheck, CFG) over the corpus — xg++'s per-build cost. The corpus
// is generated once, outside the timed loop.
func BenchmarkFrontend(b *testing.B) {
	gen := flashgen.Generate(flashgen.Options{Seed: 1})
	var loc int
	for _, p := range gen.Protocols {
		for _, f := range p.Files {
			loc += len(f)
		}
	}
	b.SetBytes(int64(loc))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range gen.Protocols {
			prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
			if err != nil {
				b.Fatal(err)
			}
			if len(prog.ParseErrors) > 0 {
				b.Fatalf("%s: %v", p.Name, prog.ParseErrors[0])
			}
		}
	}
}

// BenchmarkTable1 times the protocol-size statistics (path-count DP
// over every function).
func BenchmarkTable1(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Table1()
	}
}

// BenchmarkTable2 times the buffer race checker over all protocols.
func BenchmarkTable2(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Table2()
	}
}

// BenchmarkTable3 times the message-length checker.
func BenchmarkTable3(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Table3()
	}
}

// BenchmarkTable4 times the buffer-management checker.
func BenchmarkTable4(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Table4()
	}
}

// BenchmarkLanes times the inter-procedural lane checker (local
// summaries + linked global traversal).
func BenchmarkLanes(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lanes()
	}
}

// BenchmarkTable5 times the execution-restriction passes.
func BenchmarkTable5(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Table5()
	}
}

// BenchmarkTable6 times the three §9 checkers.
func BenchmarkTable6(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Table6()
	}
}

// BenchmarkTable7 times the whole-suite summary (every checker over
// every protocol).
func BenchmarkTable7(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Table7()
	}
}

// BenchmarkStaticVsDynamic times the §2/§11 experiment at 10 trials
// per handler (the full 120-trial campaign runs in the tests).
func BenchmarkStaticVsDynamic(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StaticVsDynamic(10, int64(i+1))
	}
}

// BenchmarkMetalCompile times compiling the Figure 2 checker.
func BenchmarkMetalCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := metal.Compile(checkers.WaitForDBSource, metal.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationGraph builds one many-branch function for the
// dataflow-vs-path-walk comparison.
func ablationGraph(b *testing.B, branches int) *cfg.Graph {
	src := "void h(int c) {\nint a;\nint v;\n"
	for i := 0; i < branches; i++ {
		src += "if (c) { v = 1; } else { v = 2; }\n"
	}
	src += "v = MISCBUS_READ_DB(a, 0);\n}\n"
	f, errs := parser.ParseText("bench.c", src)
	if len(errs) != 0 {
		b.Fatalf("parse: %v", errs)
	}
	return cfg.Build(f.Funcs()[0])
}

func ablationSM(b *testing.B) *engine.SM {
	w := map[string]string{"x": "", "y": ""}
	read, err := parser.ParseStmtPattern("MISCBUS_READ_DB(x, y);", parser.PatternContext{Wildcards: w})
	if err != nil {
		b.Fatal(err)
	}
	wait, err := parser.ParseStmtPattern("WAIT_FOR_DB_FULL(x);", parser.PatternContext{Wildcards: w})
	if err != nil {
		b.Fatal(err)
	}
	return &engine.SM{
		Name:  "bench",
		Start: "start",
		Rules: []*engine.Rule{
			{State: "start", Patterns: []engine.Pattern{{Stmt: wait}}, Target: engine.Stop},
			{State: "start", Patterns: []engine.Pattern{{Stmt: read}},
				Action: func(c *engine.Ctx) { c.Report("race") }},
		},
	}
}

// BenchmarkAblationDataflow16 runs the configuration-set executor on a
// function with 2^16 paths; compare with BenchmarkAblationPathWalk16
// (the paper's literal every-path traversal) to see why the default
// executor matters.
func BenchmarkAblationDataflow16(b *testing.B) {
	g := ablationGraph(b, 16)
	sm := ablationSM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := engine.Run(g, sm); len(got) != 1 {
			b.Fatalf("reports %d", len(got))
		}
	}
}

// BenchmarkAblationPathWalk16 is the exponential every-path walk on
// the same function (bounded at 100k paths, which 2^16 exceeds only
// slightly; the trend against Dataflow16 is the point).
func BenchmarkAblationPathWalk16(b *testing.B) {
	g := ablationGraph(b, 16)
	sm := ablationSM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := engine.RunPaths(g, sm, 100000); len(got) != 1 {
			b.Fatalf("reports %d", len(got))
		}
	}
}

// BenchmarkAblationPruning measures the correlated-branch pruner's
// cost on the buffer-management checker (DESIGN.md §6.2); the
// companion test quantifies the 22 reports it removes.
func BenchmarkAblationPruning(b *testing.B) {
	c := benchCorpus(b)
	chk := checkers.NewBufferMgmtPruned()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range c.Gen.Protocols {
			chk.Check(c.Programs[p.Name], p.Spec)
		}
	}
}

// BenchmarkSystemDeadlock measures the §6 low-grade-leak experiment:
// how long the multi-node system runs before the sci protocol's
// rare-path buffer leak drains the pools.
func BenchmarkSystemDeadlock(b *testing.B) {
	c := benchCorpus(b)
	p := c.Gen.Protocol("sci")
	prog := c.Programs["sci"]
	var leaky string
	for _, s := range p.Manifest {
		if s.Checker == "buffer_mgmt" && s.Note == "buffer leak in in-progress code" {
			for _, fn := range prog.Fns {
				if fn.Pos().File == s.File && fn.Pos().Line <= s.Line && s.Line <= fn.EndPos.Line {
					leaky = fn.Name
				}
			}
		}
	}
	if leaky == "" {
		b.Fatal("leak handler not found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := flashsim.NewSystem(prog, p.Spec, []string{leaky}, int64(i+3))
		res := sys.Run(50000)
		if !res.Deadlocked {
			b.Fatalf("no deadlock: %s", res)
		}
	}
}

// BenchmarkWarmVsColdCheck measures the artifact depot's point: the
// same full-suite analysis of one protocol with an empty depot (cold)
// versus a fully populated one (warm). A warm run skips every checker
// execution and pays only AST fingerprinting plus cache reads, so it
// should beat cold by well over 3x.
func BenchmarkWarmVsColdCheck(b *testing.B) {
	c := benchCorpus(b)
	const proto = "bitvector"
	prog := c.Programs[proto]
	spec := c.Gen.Protocol(proto).Spec
	req := sched.Request{Prog: prog, Spec: spec, Jobs: sched.FlashJobs(spec)}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			an := &sched.Analyzer{} // nil depot: a fresh in-memory one per call
			if _, err := an.Check(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := depot.Open("")
		if err != nil {
			b.Fatal(err)
		}
		an := &sched.Analyzer{Depot: store}
		if _, err := an.Check(req); err != nil { // populate the depot
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := an.Check(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPathStats times the Table 1 path DP alone over the largest
// protocol.
func BenchmarkPathStats(b *testing.B) {
	c := benchCorpus(b)
	prog := c.Programs["dyn_ptr"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range prog.Graphs {
			paths.Analyze(g)
		}
	}
}
