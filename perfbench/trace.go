package main

import (
	"fmt"
	"path/filepath"
	"time"

	"flashmc/internal/checkers"
	"flashmc/internal/depot"
	"flashmc/internal/flashgen"
	"flashmc/internal/obs"
	"flashmc/internal/sched"
)

// tracedPasses is how many traced layer-by-layer passes a traced run
// makes, alternating with as many untraced scheduler passes.
const tracedPasses = 2

// runTraced is the per-layer run. It is the same layer probe on every
// workload: a traced layer-by-layer cold pass (checked against
// core.Load and the scheduler), sym triage of the reports, a depot
// Get/Put replay of the warm depot, and a short mcheckd session. Only
// the scheduler counters come from the workload's own kind of check.
func runTraced(cfg config, t *tally, m metricSet) error {
	gen := flashgen.Generate(flashgen.Options{Seed: cfg.seed})
	cold := &corpusEnv{gen: gen}
	o := &passOracle{gen: gen}
	ref, err := cold.pass() // untimed warm-up and reference streams
	if err != nil {
		return err
	}
	o.check(t, "reference", ref)
	o.reference(ref)
	lps := make([]*layeredProtocol, len(gen.Protocols))
	for i, p := range gen.Protocols {
		tmpl, err := loadProtocol(p)
		if err != nil {
			return err
		}
		lps[i] = &layeredProtocol{p: p, tmpl: tmpl, reports: ref[p.Name].Reports, streams: byChecker(ref[p.Name]),
			progFP: sched.ProgramFingerprint(tmpl, sched.Fingerprints(tmpl))}
	}

	rec := newRecorder()
	var untraced, traced, unattributed []float64
	var gc delta
	var engine map[string]float64
	var coldRes map[string]*sched.Result
	for i := 0; i < tracedPasses; i++ {
		t0 := time.Now()
		if coldRes, err = cold.pass(); err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		o.check(t, fmt.Sprintf("untraced pass %d", i), coldRes)

		before, snap := sampleRuntime(), obs.Default.Snapshot()
		start := time.Now()
		for _, lp := range lps {
			t.check("traced "+lp.p.Name, rec.layeredPass(lp))
		}
		end := time.Now()
		d := diff(before, sampleRuntime())
		gc.gcCPU += d.gcCPU
		gc.gcCycles += d.gcCycles
		engine = addDeltas(engine, snap, obs.Default.Snapshot())
		traced = append(traced, end.Sub(start).Seconds())
		unattributed = append(unattributed, 1-rec.covered(start, end)/end.Sub(start).Seconds())
	}

	snap := obs.Default.Snapshot()
	for _, lp := range lps {
		rec.triage(lp)
	}
	symCounts := addDeltas(nil, snap, obs.Default.Snapshot())

	// The warm depot: one cold pass through an on-disk depot, as the
	// warm-recheck set-up fills it; its artifacts are then replayed.
	warm := &corpusEnv{gen: gen, depotDir: workPath(cfg, "depot")}
	filled, err := warm.pass()
	if err != nil {
		return err
	}
	o.check(t, "warm depot", filled)
	var keys []depot.Key
	for _, lp := range lps {
		req := &sched.Request{Jobs: sched.FlashJobs(lp.p.Spec)}
		keys = append(keys, warmKeys(lp.tmpl, req, filled[lp.p.Name])...)
	}
	warmStore, err := depot.OpenSharded(warm.depotDir, 0)
	if err != nil {
		return err
	}
	fresh, err := depot.OpenSharded(workPath(cfg, "replay"), 0)
	if err != nil {
		return err
	}
	if err := rec.depotReplay(warmStore, fresh, keys); err != nil {
		return err
	}

	sess, err := serveSession(cfg, t, cfg.seconds/2)
	if err != nil {
		return err
	}

	// Scheduler counters of the workload's own kind of check.
	var st []schedStats
	switch cfg.workload {
	case "cold-corpus":
		st = resultStats(coldRes)
	case "warm-recheck":
		again, err := warm.pass()
		if err != nil {
			return err
		}
		o.allHits = true
		o.check(t, "warm pass", again)
		st = resultStats(again)
	case "serve-edit":
		for _, s := range sess.load.samples {
			if s.edit {
				r := s.reply.Stats
				st = append(st, schedStats{tasks: r.Tasks, taskS: r.TaskMS / 1e3, waitS: r.QueueWaitMS / 1e3,
					hits: r.CacheHits, misses: r.CacheMisses})
			}
		}
	}

	// The trace outlives the run's scratch directory, for a viewer.
	tracePath := filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	spans, err := rec.writeTrace(tracePath)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	logf("traced run: %d spans in %s; traced pass %.3fs vs untraced %.3fs", spans, tracePath, median(traced), median(untraced))

	n := float64(tracedPasses)
	layerS := func(name, layer string) { m.set(name, "s", rec.wall[layer]/n) }
	layerMB := func(name, layer string) { m.set(name, "MB", rec.alloc[layer]/n) }
	for _, l := range []string{"cpp", "lexer", "parser", "sem", "cfg", "fingerprint"} {
		layerS(l+".s", l)
	}
	for _, l := range []string{"cpp", "lexer", "parser", "fingerprint"} {
		layerMB(l+".alloc_mb", l)
	}
	m.set("cpp.out_mb", "MB", rec.count["cpp.out_bytes"]/n/1e6)
	m.set("lexer.tokens", "count", rec.count["lexer.tokens"]/n)
	m.set("cfg.nodes", "count", rec.count["cfg.nodes"]/n)
	var engS, engMB float64
	for _, name := range smCheckers() {
		layerS("engine."+name+".s", "engine."+name)
		engS += rec.wall["engine."+name] / n
		engMB += rec.alloc["engine."+name] / n
	}
	m.set("engine.s", "s", engS)
	m.set("engine.alloc_mb", "MB", engMB)
	m.set("engine.configs", "count", engine["engine_configs_explored_total"]/n)
	m.set("engine.node_visits", "count", engine["engine_node_visits_total"]/n)
	m.set("engine.pattern_evals", "count", engine["engine_pattern_evals_total"]/n)
	m.set("engine.rules_fired", "count", engine["engine_rules_fired_total"]/n)
	m.set("match.fire_ratio", "fraction", engine["engine_rules_fired_total"]/engine["engine_pattern_evals_total"])
	layerS("passes.s", "passes")
	layerS("lanes.summarize_s", "lanes.summarize")
	layerS("global.link_s", "global.link")
	layerS("lanes.traverse_s", "lanes.traverse")
	m.set("triage.s", "s", rec.wall["triage"])
	m.set("triage.alloc_mb", "MB", rec.alloc["triage"])
	m.set("sym.refuted", "count", symCounts["sym_paths_refuted_total"])
	m.set("sym.feasible", "count", symCounts["sym_paths_feasible_total"])
	m.set("sym.undecided", "count", symCounts["sym_paths_undecided_total"])
	m.set("depot.read_s", "s", rec.wall["depot.read"])
	m.set("depot.read_mb", "MB", rec.count["depot.bytes"]/1e6)
	m.set("depot.write_s", "s", rec.wall["depot.write"])
	m.set("depot.write_mb", "MB", rec.count["depot.bytes"]/1e6)
	m.set("depot.artifacts", "count", rec.count["depot.artifacts"])
	setSchedStats(m, st)
	sess.set(m)
	m.set("gc.cpu_s", "s", gc.gcCPU/n)
	m.set("gc.cycles", "count", gc.gcCycles/n)
	m.set("trace.unattributed_frac", "fraction", median(unattributed))
	m.set("trace.overhead_frac", "fraction", median(traced)/median(untraced)-1)
	return nil
}

// smCheckers names the suite's state-machine checkers in suite order.
func smCheckers() []string {
	var out []string
	for _, chk := range checkers.All() {
		if _, ok := chk.(checkers.SMProvider); ok {
			out = append(out, chk.Name())
		}
	}
	return out
}

// addDeltas adds after-before for every obs metric to acc.
func addDeltas(acc map[string]float64, before, after map[string]float64) map[string]float64 {
	if acc == nil {
		acc = map[string]float64{}
	}
	for k, v := range after {
		acc[k] += v - before[k]
	}
	return acc
}

// schedStats is one protocol check's scheduler counters.
type schedStats struct {
	tasks, hits, misses int
	taskS, waitS        float64
}

func resultStats(results map[string]*sched.Result) []schedStats {
	var out []schedStats
	for _, res := range results {
		s := res.Stats
		out = append(out, schedStats{tasks: s.Tasks, taskS: s.TaskTime.Seconds(), waitS: s.QueueWait.Seconds(),
			hits: s.CacheHits, misses: s.CacheMisses})
	}
	return out
}

// setSchedStats reports per-check means of the scheduler counters.
func setSchedStats(m metricSet, st []schedStats) {
	var tasks, taskS, waitS, hits, lookups float64
	for _, s := range st {
		tasks += float64(s.tasks)
		taskS += s.taskS
		waitS += s.waitS
		hits += float64(s.hits)
		lookups += float64(s.hits + s.misses)
	}
	n := float64(len(st))
	m.set("sched.tasks", "count", tasks/n)
	m.set("sched.task_s", "s", taskS/n)
	m.set("sched.queue_wait_s", "s", waitS/n)
	m.set("sched.hit_ratio", "fraction", hits/lookups)
}

// session is a short mcheckd edit loop's per-layer figures.
type session struct {
	load loadResult
	a, b daemonSnapshot
}

// serveSession starts one primed mcheckd and drives the edit loop for
// the given seconds.
func serveSession(cfg config, t *tally, seconds float64) (*session, error) {
	env, _, err := setupServeRepeated(cfg, t, 1)
	if err != nil {
		return nil, err
	}
	defer env.d.stop()
	env.drive(cfg, t, time.Now()) // warm-up
	s := &session{}
	if s.a, err = env.d.snapshot(); err != nil {
		return nil, err
	}
	s.load = env.drive(cfg, t, time.Now().Add(time.Duration(seconds*float64(time.Second))))
	if s.b, err = env.d.snapshot(); err != nil {
		return nil, err
	}
	s.log()
	return s, nil
}

func (s *session) set(m metricSet) {
	var server, overhead, edits, resubs []float64
	for _, x := range s.load.samples {
		if x.edit {
			edits = append(edits, x.latency)
			server = append(server, x.serverMS)
			overhead = append(overhead, x.latency-x.serverMS)
		} else {
			resubs = append(resubs, x.latency)
		}
	}
	m.set("mcheckd.server_ms", "ms", median(server))
	m.set("mcheckd.overhead_ms", "ms", median(overhead))
	m.set("mcheckd.edit_p50_ms", "ms", median(edits))
	m.set("mcheckd.resubmit_p50_ms", "ms", median(resubs))
	hits, misses := s.b.pcHits-s.a.pcHits, s.b.pcMiss-s.a.pcMiss
	m.set("progcache.hit_ratio", "fraction", hits/(hits+misses))
	first, second := s.halves()
	m.set("mcheckd.drift_frac", "fraction", median(second)/median(first)-1)
	m.set("mcheckd.rss_growth_mb", "MB", s.b.rssMB-s.a.rssMB)
}

// halves splits edit latencies at the session's midpoint.
func (s *session) halves() (first, second []float64) {
	mid := s.a.at.Add(s.b.at.Sub(s.a.at) / 2)
	for _, x := range s.load.samples {
		if !x.edit {
			continue
		}
		if x.at.Before(mid) {
			first = append(first, x.latency)
		} else {
			second = append(second, x.latency)
		}
	}
	return first, second
}
