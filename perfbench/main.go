// Command perfbench is flashmc's benchmark: it measures the time to a
// checking verdict end to end on three workloads and, in a separate
// traced run, attributes that time to the program's layers by timing
// calls into each layer's public functions from the outside.
//
// Usage (from the repository root; run.sh builds and invokes it):
//
//	perfbench --workload cold-corpus|warm-recheck|serve-edit --seed N
//	          --seconds S --trace 0|1 [--mcheckd BIN] [--work DIR]
//
// The inputs are the flashgen corpus for --seed. Every operation's
// output is checked against the generator's ground-truth manifest. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1). README.md describes each workload
// and metric and which layer should move which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	mcheckd  string
	work     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and oracle failures.
type tally struct {
	attempted, failed int
}

// check records one operation; a non-empty problem list fails it and
// is logged to standard error.
func (t *tally) check(what string, problems []string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for i, p := range problems {
		if i == 5 {
			logf("%s: ... %d more", what, len(problems)-i)
			break
		}
		logf("%s: %s", what, p)
	}
}

// metricSet accumulates named values for the result line.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "cold-corpus, warm-recheck or serve-edit")
	flag.Int64Var(&cfg.seed, "seed", 1, "flashgen corpus seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.mcheckd, "mcheckd", "", "mcheckd binary (serve-edit and traced runs)")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for depots and traces")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fail("--seconds must be positive")
	}

	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fail("%v", err)
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		fail("%v", err)
	}
	cfg.work = dir
	res, err := run(cfg)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		logf("cleanup: %v", rmErr)
	}
	if err != nil {
		fail("%s: %v", cfg.workload, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(out))
}

// run dispatches one workload in untraced or traced mode.
func run(cfg config) (*result, error) {
	if cfg.trace && cfg.mcheckd == "" {
		return nil, fmt.Errorf("--trace 1 needs --mcheckd")
	}
	var t tally
	m := metricSet{}
	var err error
	switch cfg.workload {
	case "cold-corpus", "warm-recheck", "serve-edit":
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	switch {
	case cfg.trace:
		err = runTraced(cfg, &t, m)
	case cfg.workload == "serve-edit":
		if cfg.mcheckd == "" {
			return nil, fmt.Errorf("serve-edit needs --mcheckd")
		}
		err = runServe(cfg, &t, m)
	default:
		err = runInProcess(cfg, &t, m)
	}
	if err != nil {
		return nil, err
	}
	if t.attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func fail(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}

// deadline returns when a measurement starting now should stop.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// workPath names a fresh path under the invocation's scratch directory.
func workPath(cfg config, name string) string { return filepath.Join(cfg.work, name) }
