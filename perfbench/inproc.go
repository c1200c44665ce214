package main

import (
	"fmt"
	"os"
	"syscall"
	"time"

	"flashmc/internal/depot"
	"flashmc/internal/flashgen"
	"flashmc/internal/sched"
)

// setupRepeats is how many times a run sets up from scratch; setup_s
// is the median, and the last set-up is the one measured. The
// cold-corpus set-up is only corpus generation (about 0.1s), so it
// repeats more to steady that median.
func setupRepeats(cfg config) int {
	if cfg.workload == "cold-corpus" {
		return 9
	}
	return 3
}

// minPasses is the fewest measured passes a run makes, however short
// --seconds is.
const minPasses = 3

// corpusEnv is one in-process workload's prepared state.
type corpusEnv struct {
	gen *flashgen.Corpus
	// depotDir is the warm workload's on-disk depot, populated by one
	// cold pass; empty for cold-corpus.
	depotDir string
	// cold holds the set-up pass's results (warm workload only).
	cold map[string]*sched.Result
}

// setupCorpus generates the corpus and, for the warm workload, fills
// an on-disk depot with one cold pass.
func setupCorpus(cfg config, warm bool, i int) (*corpusEnv, error) {
	env := &corpusEnv{gen: flashgen.Generate(flashgen.Options{Seed: cfg.seed})}
	if !warm {
		return env, nil
	}
	env.depotDir = workPath(cfg, fmt.Sprintf("depot-%d", i))
	res, err := env.pass()
	if err != nil {
		return nil, err
	}
	env.cold = res
	return env, nil
}

// pass runs every protocol once. Without a depot directory each check
// gets a fresh in-memory depot (a first mcheck -flash). With one, each
// protocol does what mcheck -flash -cache DIR does: open the depot,
// load, check, and append the run to the depot's ledger.
func (e *corpusEnv) pass() (map[string]*sched.Result, error) {
	out := make(map[string]*sched.Result, len(e.gen.Protocols))
	for _, p := range e.gen.Protocols {
		an := &sched.Analyzer{}
		var store *depot.Depot
		if e.depotDir != "" {
			var err error
			if store, err = depot.OpenSharded(e.depotDir, 0); err != nil {
				return nil, err
			}
			an.Depot = store
		}
		prog, err := loadProtocol(p)
		if err != nil {
			return nil, err
		}
		req, res, err := checkProtocol(an, p, prog)
		if err != nil {
			return nil, err
		}
		if store != nil {
			if err := sched.AppendRun(store, sched.NewRunEntry(req, res, nil)); err != nil {
				return nil, fmt.Errorf("ledger %s: %w", p.Name, err)
			}
		}
		out[p.Name] = res
	}
	return out, nil
}

// runInProcess measures cold-corpus or warm-recheck: set-up (timed,
// repeated), one untimed warm-up pass, then closed-loop passes until
// the deadline, each checked against the manifest.
func runInProcess(cfg config, t *tally, m metricSet) error {
	warm := cfg.workload == "warm-recheck"
	var env *corpusEnv
	var setups []float64
	probe := &speedProbe{}
	for i := 0; i < setupRepeats(cfg); i++ {
		probe.sample(1)
		sw := startWatch()
		e, err := setupCorpus(cfg, warm, i)
		if err != nil {
			return err
		}
		_, ran := sw.elapsed()
		setups = append(setups, ran)
		if env != nil && env.depotDir != "" {
			if err := os.RemoveAll(env.depotDir); err != nil {
				return err
			}
		}
		env = e
	}
	logf("%s: set-up steal-free median %.3fs of %d: %.3f", cfg.workload, median(setups), len(setups), setups)
	// Flush the set-ups' depot writes so their writeback does not land
	// in the measured passes.
	syscall.Sync()

	o := &passOracle{gen: env.gen}
	if warm {
		o.check(t, "set-up", env.cold)
		o.reference(env.cold)
	}
	res, err := env.pass()
	if err != nil {
		return err
	}
	o.allHits = warm
	o.check(t, "warm-up", res)
	if !warm {
		o.reference(res)
	}

	var raws, walls, cpus, allocs, objs, peaks []float64
	var gcCPU, busyCPU float64
	end := deadline(cfg)
	for n := 0; n < minPasses || time.Now().Before(end); n++ {
		if err := resetPeakRSS("self"); err != nil {
			return err
		}
		probe.sample(1)
		a, sw := sampleRuntime(), startWatch()
		res, err := env.pass()
		raw, ran := sw.elapsed()
		d := diff(a, sampleRuntime())
		if err != nil {
			return err
		}
		peak, err := procStatusMB("self", "VmHWM")
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		raws = append(raws, raw)
		walls = append(walls, ran)
		cpus = append(cpus, d.cpu)
		allocs = append(allocs, d.allocMB)
		objs = append(objs, d.allocObjsM)
		gcCPU += d.gcCPU
		busyCPU += d.busyCPU
		o.check(t, fmt.Sprintf("pass %d", n), res)
	}
	logf("%s: %d passes, median %.3fs steal-free (%.3fs wall), steal-free pass times %.3f, wall %.3f",
		cfg.workload, len(walls), median(walls), median(raws), walls, raws)
	probe.log(cfg.workload)
	f := probe.factor()
	m.set("setup_s", "s", f*median(setups))
	m.set("corpus_s", "s", f*median(walls))
	m.set("corpus_cpu_s", "s", f*median(cpus))
	m.set("alloc_mb", "MB", median(allocs))
	m.set("alloc_objects_m", "M", median(objs))
	// Both sides of the GC share come from the runtime's own CPU
	// accounting, which charges a P's wall time; on a host that steals
	// CPU from the VM, both are inflated alike and the share holds.
	m.set("gc_cpu_frac", "fraction", gcCPU/busyCPU)
	m.set("peak_rss_mb", "MB", median(peaks))
	m.set("checks_per_s", "1/s", float64(len(env.gen.Protocols))/(f*median(walls)))
	return nil
}
