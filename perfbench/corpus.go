package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flashgen"
	"flashmc/internal/paper"
	"flashmc/internal/sched"
)

// manifestErrors is how many real errors the paper's tables (and so
// the flashgen manifest) hold across the six protocols and nine
// checkers; every checked pass must score exactly this many.
const manifestErrors = 34

// loadProtocol runs the frontend on one generated protocol, as
// paper.LoadCorpus does, failing on any parse error.
func loadProtocol(p *flashgen.Protocol) (*core.Program, error) {
	prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", p.Name, err)
	}
	if len(prog.ParseErrors) > 0 {
		return nil, fmt.Errorf("load %s: %v", p.Name, prog.ParseErrors[0])
	}
	return prog, nil
}

// checkProtocol is one protocol's suite run through the scheduler, as
// mcheck -flash runs it but under the protocol's flashgen spec.
func checkProtocol(an *sched.Analyzer, p *flashgen.Protocol, prog *core.Program) (*sched.Request, *sched.Result, error) {
	req := &sched.Request{Prog: prog, Spec: p.Spec, Jobs: sched.FlashJobs(p.Spec)}
	res, err := an.Check(*req)
	if err != nil {
		return nil, nil, fmt.Errorf("check %s: %w", p.Name, err)
	}
	return req, res, nil
}

// byChecker splits a scheduler report stream by the job that produced
// each report; link errors (no artifact) belong to the lanes job.
func byChecker(res *sched.Result) map[string][]engine.Report {
	out := map[string][]engine.Report{}
	for i, r := range res.Reports {
		name := "lanes"
		if ref := res.RefIdx[i]; ref >= 0 {
			name = res.Artifacts[ref].Key.Checker
		}
		out[name] = append(out[name], r)
	}
	return out
}

// score joins one protocol's per-checker streams with the manifest and
// returns the real errors found plus every unmatched report and missed
// site as a problem.
func score(p *flashgen.Protocol, streams map[string][]engine.Report) (int, []string) {
	errs := 0
	var problems []string
	for _, chk := range checkers.All() {
		sc := paper.ScoreChecker(p, chk.Name(), streams[chk.Name()])
		errs += sc.Errors
		for _, r := range sc.Unmatched {
			problems = append(problems, fmt.Sprintf("%s: unmatched %s report at %s:%d", p.Name, chk.Name(), r.Pos.File, r.Pos.Line))
		}
		for _, s := range sc.Missed {
			problems = append(problems, fmt.Sprintf("%s: missed %s site %s:%d", p.Name, chk.Name(), s.File, s.Line))
		}
	}
	return errs, problems
}

// passOracle checks six-protocol passes: exact manifest scoring with
// the paper's error total and, once want is set, report streams
// byte-identical to the reference pass.
type passOracle struct {
	gen  *flashgen.Corpus
	want map[string][]byte
	// allHits requires every depot lookup to hit (warm-recheck).
	allHits bool
}

func encodeReports(rs []engine.Report) []byte {
	b, err := json.Marshal(rs)
	if err != nil {
		panic(fmt.Sprintf("marshal reports: %v", err))
	}
	return b
}

// check scores one pass's results (keyed by protocol) into t, one
// operation per protocol check. A pass whose error total is off fails
// its last protocol check.
func (o *passOracle) check(t *tally, label string, results map[string]*sched.Result) {
	total := 0
	problems := make([][]string, len(o.gen.Protocols))
	for i, p := range o.gen.Protocols {
		res := results[p.Name]
		errs, ps := score(p, byChecker(res))
		total += errs
		if o.want != nil && !bytes.Equal(encodeReports(res.Reports), o.want[p.Name]) {
			ps = append(ps, p.Name+": report stream differs from the reference pass")
		}
		if o.allHits && res.Stats.CacheMisses > 0 {
			ps = append(ps, fmt.Sprintf("%s: %d depot misses on a warm re-check", p.Name, res.Stats.CacheMisses))
		}
		problems[i] = ps
	}
	if total != manifestErrors {
		last := len(problems) - 1
		problems[last] = append(problems[last], fmt.Sprintf("pass found %d errors, manifest holds %d", total, manifestErrors))
	}
	for i, p := range o.gen.Protocols {
		t.check(label+" "+p.Name, problems[i])
	}
}

// reference records results as the streams later passes must equal.
func (o *passOracle) reference(results map[string]*sched.Result) {
	o.want = map[string][]byte{}
	for name, res := range results {
		o.want[name] = encodeReports(res.Reports)
	}
}
