package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/token"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/paper"
	"flashmc/internal/sched"
)

// daemon is one mcheckd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	launch time.Time
	exited chan struct{} // closed once the process has been reaped
	logs   *logTail
}

// logTail drains the daemon's per-request log so a full pipe cannot
// stall it, keeping the last lines for error messages.
type logTail struct {
	mu    sync.Mutex
	lines []string
	done  chan struct{}
}

func (l *logTail) drain(r io.Reader) {
	defer close(l.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		l.mu.Lock()
		if len(l.lines) == 20 {
			l.lines = l.lines[1:]
		}
		l.lines = append(l.lines, sc.Text())
		l.mu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r) // an over-long line ends the scan; keep draining
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches mcheckd over an on-disk depot and waits until
// it answers /healthz.
func startDaemon(bin, cacheDir string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-cache", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, exited: make(chan struct{}),
		logs: &logTail{done: make(chan struct{})}}
	d.launch = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mcheckd: %w", err)
	}
	go d.logs.drain(stderr)
	go func() {
		<-d.logs.done // Wait closes the pipe; read it to the end first
		_ = cmd.Wait()
		close(d.exited)
	}()
	for t0 := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("mcheckd exited during start-up:\n%s", d.logs)
		default:
		}
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(t0) > 20*time.Second {
			d.stop()
			return nil, fmt.Errorf("mcheckd not healthy after 20s:\n%s", d.logs)
		}
	}
}

// stop kills the daemon and waits until it has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// memStats is the part of mcheckd's runtime.MemStats the benchmark
// reads from /debug/pprof/allocs?debug=1.
type memStats struct {
	totalAlloc, mallocs, numGC float64
	lastGC                     time.Time
	gcCPUFraction              float64
}

func (d *daemon) memStats() (memStats, error) {
	resp, err := http.Get(d.url + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	var ms memStats
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		switch k {
		case "TotalAlloc":
			ms.totalAlloc = f
		case "Mallocs":
			ms.mallocs = f
		case "NumGC":
			ms.numGC = f
		case "LastGC":
			ms.lastGC = time.Unix(0, int64(f))
		case "GCCPUFraction":
			ms.gcCPUFraction = f
		default:
			continue
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return ms, err
	}
	if found != 5 {
		return ms, fmt.Errorf("mcheckd memstats: found %d of 5 fields", found)
	}
	return ms, nil
}

// gcCPU estimates the daemon's GC CPU seconds up to its last GC:
// GCCPUFraction is non-idle GC CPU over GOMAXPROCS × wall time since
// the runtime started, which is the launch to within milliseconds.
func (d *daemon) gcCPU(ms memStats) float64 {
	if ms.numGC == 0 {
		return 0
	}
	return ms.gcCPUFraction * ms.lastGC.Sub(d.launch).Seconds() * float64(runtime.NumCPU())
}

// promCounter reads one unlabelled counter from /metrics.
func (d *daemon) promCounter(name string) (float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics: no %s", name)
}

// servedProtocol is one protocol prepared for /check: its files
// pre-encoded as JSON members, so building an edited body re-encodes
// only the edited file.
type servedProtocol struct {
	p       *flashgen.Protocol
	names   []string          // file names, sorted
	encoded map[string][]byte // name → `"name":"contents"`
	roots   []byte
	// handlers are the seeded edit targets, each verified to change
	// the function's fingerprint.
	handlers []editTarget
}

// editTarget names a handler and the body line an edit appends to.
type editTarget struct {
	fn, file string
	line     int // 1-based
}

func encodeMember(name, text string) []byte {
	k, _ := json.Marshal(name)
	v, _ := json.Marshal(text)
	return append(append(k, ':'), v...)
}

func newServedProtocol(p *flashgen.Protocol) *servedProtocol {
	sp := &servedProtocol{p: p, encoded: map[string][]byte{}}
	for name, text := range p.Files {
		sp.names = append(sp.names, name)
		sp.encoded[name] = encodeMember(name, text)
	}
	sort.Strings(sp.names)
	sp.roots, _ = json.Marshal(p.RootFiles)
	return sp
}

// body builds a /check request: the protocol's sources with at most
// one file replaced, explicit roots, and sym triage.
func (sp *servedProtocol) body(editFile, editText string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"files":{`)
	for i, name := range sp.names {
		if i > 0 {
			b.WriteByte(',')
		}
		if name == editFile {
			b.Write(encodeMember(name, editText))
		} else {
			b.Write(sp.encoded[name])
		}
	}
	b.WriteString(`},"roots":`)
	b.Write(sp.roots)
	b.WriteString(`,"triage_mode":"sym"}`)
	return b.Bytes()
}

// editMarker is appended to a statement line to edit a function: a
// block holding one fresh local, which no checker pattern matches and
// which leaves every line number in place.
func editMarker(n int) string { return fmt.Sprintf(" { int perfbench_edit = %d; }", n) }

// edit returns target's file with the edit numbered n applied.
func (sp *servedProtocol) edit(tg editTarget, n int) string {
	lines := strings.Split(sp.p.Files[tg.file], "\n")
	lines[tg.line-1] += editMarker(n)
	return strings.Join(lines, "\n")
}

// editCandidates is how many handlers per protocol the edits rotate
// over.
const editCandidates = 6

// pickHandlers chooses seeded edit targets among the protocol's
// handlers: the last simple statement line of each handler body.
func (sp *servedProtocol) pickHandlers(prog *core.Program, rng *rand.Rand) error {
	var all []editTarget
	for _, fn := range prog.Fns {
		if flash.ClassifyName(fn.Name) == flash.Subroutine {
			continue
		}
		lines := strings.Split(sp.p.Files[fn.Pos().File], "\n")
		for ln := fn.EndPos.Line - 1; ln > fn.Pos().Line; ln-- {
			s := strings.TrimSpace(lines[ln-1])
			if strings.HasSuffix(s, ";") && !strings.HasPrefix(s, "}") && !strings.HasPrefix(s, "#") &&
				!strings.HasPrefix(s, "return") && !strings.HasPrefix(s, "for") {
				all = append(all, editTarget{fn: fn.Name, file: fn.Pos().File, line: ln})
				break
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, tg := range all {
		if len(sp.handlers) == editCandidates {
			break
		}
		if sp.editChangesFingerprint(tg) {
			sp.handlers = append(sp.handlers, tg)
		}
	}
	if len(sp.handlers) == 0 {
		return fmt.Errorf("%s: no editable handler", sp.p.Name)
	}
	return nil
}

// editChangesFingerprint loads the target's file alone, pristine and
// edited, and reports whether the edit changes the function's
// sched.FnFingerprint and nothing else's.
func (sp *servedProtocol) editChangesFingerprint(tg editTarget) bool {
	fps := func(text string) map[string]string {
		src := cpp.MapSource{"flash-includes.h": flash.IncludesH, tg.file: text}
		prog, err := core.Load(sp.p.Name, src, []string{tg.file})
		if err != nil {
			return nil
		}
		out := map[string]string{}
		for _, fn := range prog.Fns {
			out[fn.Name] = sched.FnFingerprint(fn)
		}
		return out
	}
	before, after := fps(sp.p.Files[tg.file]), fps(sp.edit(tg, 1))
	if before == nil || after == nil || len(before) != len(after) || before[tg.fn] == "" {
		return false
	}
	for name, fp := range before {
		if (fp != after[name]) != (name == tg.fn) {
			return false
		}
	}
	return true
}

// checkReply is the part of a /check response the oracle reads.
type checkReply struct {
	Reports json.RawMessage `json:"reports"`
	Stats   struct {
		Tasks       int      `json:"tasks"`
		CacheHits   int      `json:"cache_hits"`
		CacheMisses int      `json:"cache_misses"`
		Reanalyzed  []string `json:"reanalyzed"`
		ElapsedMS   float64  `json:"elapsed_ms"`
		TaskMS      float64  `json:"task_ms"`
		QueueWaitMS float64  `json:"queue_wait_ms"`
	} `json:"stats"`
}

type replyReport struct {
	Checker string `json:"checker"`
	File    string `json:"file"`
	Line    int    `json:"line"`
}

// serveOracle checks /check replies against the manifest. mcheckd runs
// under the naming-convention spec, which over-reports lanes and
// buffer_mgmt, so only missed sites count.
type serveOracle struct {
	checkerOf map[string]string // report SM name → checker name
}

func newServeOracle(gen *flashgen.Corpus) *serveOracle {
	o := &serveOracle{checkerOf: map[string]string{}}
	for _, chk := range checkers.All() {
		o.checkerOf[chk.Name()] = chk.Name()
		if prov, ok := chk.(checkers.SMProvider); ok {
			sm, _ := prov.BuildSM(gen.Protocols[0].Spec)
			o.checkerOf[sm.Name] = chk.Name()
		}
	}
	return o
}

func (o *serveOracle) missed(p *flashgen.Protocol, rep *checkReply) []string {
	var rs []replyReport
	if err := json.Unmarshal(rep.Reports, &rs); err != nil {
		return []string{fmt.Sprintf("%s: reports: %v", p.Name, err)}
	}
	streams := map[string][]engine.Report{}
	for _, r := range rs {
		name := o.checkerOf[r.Checker]
		streams[name] = append(streams[name], engine.Report{SM: r.Checker, Pos: token.Pos{File: r.File, Line: r.Line}})
	}
	var problems []string
	for _, chk := range checkers.All() {
		for _, s := range paper.ScoreChecker(p, chk.Name(), streams[chk.Name()]).Missed {
			problems = append(problems, fmt.Sprintf("%s: missed %s site %s:%d", p.Name, s.Checker, s.File, s.Line))
		}
	}
	return problems
}

// post sends one /check and decodes the reply.
func post(c *http.Client, url string, body []byte) (*checkReply, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(url+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw[:min(len(raw), 200)]))
	}
	var rep checkReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, lat, err
	}
	return &rep, lat, nil
}

// sample is one completed /check.
type sample struct {
	edit     bool
	at       time.Time
	latency  float64 // ms, client side
	serverMS float64
	reply    *checkReply
}

// serveEnv is a primed daemon plus the prepared protocols.
type serveEnv struct {
	gen    *flashgen.Corpus
	protos []*servedProtocol
	d      *daemon
	oracle *serveOracle
	// edits counts each client's edits so far; edit numbers stay
	// unique across the warm-up and the measured loop.
	edits []int
}

// setupServe generates the corpus, starts mcheckd over a fresh
// on-disk depot and primes it with every pristine protocol.
func setupServe(cfg config, i int, t *tally) (*serveEnv, error) {
	env := &serveEnv{gen: flashgen.Generate(flashgen.Options{Seed: cfg.seed})}
	env.oracle = newServeOracle(env.gen)
	for _, p := range env.gen.Protocols {
		env.protos = append(env.protos, newServedProtocol(p))
	}
	d, err := startDaemon(cfg.mcheckd, workPath(cfg, fmt.Sprintf("cache-%d", i)))
	if err != nil {
		return nil, err
	}
	env.d = d
	// Prime with every pristine protocol, nproc requests at a time.
	clients := runtime.NumCPU()
	errs := make([]error, len(env.protos))
	problems := make([][]string, len(env.protos))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for i := c; i < len(env.protos); i += clients {
				sp := env.protos[i]
				var rep *checkReply
				if rep, _, errs[i] = post(hc, d.url, sp.body("", "")); errs[i] == nil {
					problems[i] = env.oracle.missed(sp.p, rep)
				}
			}
		}(c)
	}
	wg.Wait()
	for i, sp := range env.protos {
		if errs[i] != nil {
			d.stop()
			return nil, fmt.Errorf("prime %s: %w\n%s", sp.p.Name, errs[i], d.logs)
		}
		t.check("prime "+sp.p.Name, problems[i])
	}
	return env, nil
}

// setupServeRepeated sets up repeats times, keeping the last daemon,
// and returns the median set-up time.
func setupServeRepeated(cfg config, t *tally, repeats int) (*serveEnv, float64, error) {
	var env *serveEnv
	var setups []float64
	for i := 0; i < repeats; i++ {
		sw := startWatch()
		e, err := setupServe(cfg, i, t)
		if err != nil {
			return nil, 0, err
		}
		_, ran := sw.elapsed()
		setups = append(setups, ran)
		if i < repeats-1 {
			e.d.stop()
		}
		env = e
	}
	// Edit targets are verified once, outside the timed set-up.
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, sp := range env.protos {
		prog, err := loadProtocol(sp.p)
		if err == nil {
			err = sp.pickHandlers(prog, rng)
		}
		if err != nil {
			env.d.stop()
			return nil, 0, err
		}
	}
	logf("serve: set-up steal-free median %.3fs of %d: %.3f", median(setups), len(setups), setups)
	// Flush the set-ups' depot writes so their writeback does not land
	// in the measured loop.
	syscall.Sync()
	return env, median(setups), nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// loadResult is what the closed-loop clients measured.
type loadResult struct {
	samples []sample
	// sweeps are the steal-free seconds of each client sweep over
	// every protocol, rawSweeps their wall seconds.
	sweeps, rawSweeps []float64
	// seconds is the steal-free duration of the whole loop.
	seconds float64
}

// drive runs nproc keep-alive clients in a closed loop, each sweeping
// every protocol in a seeded order, until end; a client finishes the
// sweep in progress and makes at least one. Every reply is checked
// into t. Each client numbers its own edits, so the requests depend
// only on the seed.
func (env *serveEnv) drive(cfg config, t *tally, end time.Time) loadResult {
	clients := runtime.NumCPU()
	for len(env.edits) < clients {
		env.edits = append(env.edits, 0)
	}
	var mu sync.Mutex
	var out loadResult
	var wg sync.WaitGroup
	loop := startWatch()
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(c) + int64(env.edits[c])))
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for sweep := 0; sweep == 0 || time.Now().Before(end); sweep++ {
				sw := startWatch()
				var got []sample
				for _, pi := range rng.Perm(len(env.protos)) {
					sp := env.protos[pi]
					env.edits[c]++
					k := env.edits[c]
					tg := sp.handlers[(k+c)%len(sp.handlers)]
					body := sp.body(tg.file, sp.edit(tg, (c+1)*1_000_000+k))
					edit, problems := env.request(hc, sp, body, true, nil)
					got = append(got, edit...)
					var editReply *checkReply
					if len(edit) == 1 {
						editReply = edit[0].reply
						if !contains(editReply.Stats.Reanalyzed, tg.fn) {
							problems = append(problems, fmt.Sprintf("%s: edited %s not re-analyzed", sp.p.Name, tg.fn))
						}
					}
					mu.Lock()
					t.check("edit "+sp.p.Name, problems)
					mu.Unlock()
					again, problems := env.request(hc, sp, body, false, editReply)
					got = append(got, again...)
					mu.Lock()
					t.check("resubmit "+sp.p.Name, problems)
					mu.Unlock()
				}
				raw, ran := sw.elapsed()
				mu.Lock()
				out.samples = append(out.samples, got...)
				out.rawSweeps = append(out.rawSweeps, raw)
				out.sweeps = append(out.sweeps, ran)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	_, out.seconds = loop.elapsed()
	return out
}

// request posts one body and checks the reply: an edit must report
// every manifest site; a resubmission must repeat its edit's reports
// from the depot alone.
func (env *serveEnv) request(hc *http.Client, sp *servedProtocol, body []byte, edit bool, prev *checkReply) ([]sample, []string) {
	at := time.Now()
	rep, lat, err := post(hc, env.d.url, body)
	if err != nil {
		return nil, []string{fmt.Sprintf("%s: %v", sp.p.Name, err)}
	}
	var problems []string
	if edit {
		problems = env.oracle.missed(sp.p, rep)
		if rep.Stats.CacheMisses == 0 {
			problems = append(problems, sp.p.Name+": edit hit the depot everywhere")
		}
	} else {
		if prev == nil || !bytes.Equal(rep.Reports, prev.Reports) {
			problems = append(problems, sp.p.Name+": resubmission's reports differ from its edit's")
		}
		if rep.Stats.CacheMisses != 0 {
			problems = append(problems, fmt.Sprintf("%s: resubmission missed the depot %d times", sp.p.Name, rep.Stats.CacheMisses))
		}
	}
	s := sample{edit: edit, at: at, latency: float64(lat) / float64(time.Millisecond),
		serverMS: rep.Stats.ElapsedMS, reply: rep}
	return []sample{s}, problems
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// daemonSnapshot is mcheckd's resource use at one instant.
type daemonSnapshot struct {
	at     time.Time
	cpu    float64
	ms     memStats
	rssMB  float64
	pcHits float64
	pcMiss float64
}

func (d *daemon) snapshot() (daemonSnapshot, error) {
	s := daemonSnapshot{at: time.Now()}
	var err error
	if s.cpu, err = procCPU(d.pid()); err != nil {
		return s, err
	}
	if s.ms, err = d.memStats(); err != nil {
		return s, err
	}
	if s.rssMB, err = procStatusMB(strconv.Itoa(d.pid()), "VmRSS"); err != nil {
		return s, err
	}
	if s.pcHits, err = d.promCounter("mcheckd_program_cache_hits_total"); err != nil {
		return s, err
	}
	s.pcMiss, err = d.promCounter("mcheckd_program_cache_misses_total")
	return s, err
}

// probeSamples is how many reference samples serve-edit takes at each
// of its four quiet points: before and after set-up, after the warm-up
// and after the loop. The in-process workloads take one per set-up and
// pass.
const probeSamples = 3

// runServe measures serve-edit end to end.
func runServe(cfg config, t *tally, m metricSet) error {
	probe := &speedProbe{}
	probe.sample(probeSamples)
	env, setup, err := setupServeRepeated(cfg, t, setupRepeats(cfg))
	if err != nil {
		return err
	}
	defer env.d.stop()
	probe.sample(probeSamples)
	env.drive(cfg, t, time.Now()) // warm-up: one sweep per client
	probe.sample(probeSamples)

	s := &session{}
	if s.a, err = env.d.snapshot(); err != nil {
		return err
	}
	stopRSS := env.d.samplePeakRSS()
	s.load = env.drive(cfg, t, deadline(cfg))
	peaks, err := stopRSS()
	if err != nil {
		return err
	}
	if s.b, err = env.d.snapshot(); err != nil {
		return err
	}
	probe.sample(probeSamples)
	probe.log(cfg.workload)
	f := probe.factor()
	sweeps := float64(len(s.load.sweeps))
	cpu := s.b.cpu - s.a.cpu
	m.set("setup_s", "s", f*setup)
	m.set("corpus_s", "s", f*median(s.load.sweeps))
	m.set("corpus_cpu_s", "s", f*cpu/sweeps)
	m.set("alloc_mb", "MB", (s.b.ms.totalAlloc-s.a.ms.totalAlloc)/1e6/sweeps)
	m.set("alloc_objects_m", "M", (s.b.ms.mallocs-s.a.ms.mallocs)/1e6/sweeps)
	m.set("gc_cpu_frac", "fraction", (env.d.gcCPU(s.b.ms)-env.d.gcCPU(s.a.ms))/cpu)
	m.set("peak_rss_mb", "MB", median(peaks))
	m.set("checks_per_s", "1/s", float64(len(s.load.samples))/(f*s.load.seconds))
	s.log()
	return nil
}

// rssInterval is how often the daemon's peak RSS is read and reset.
const rssInterval = time.Second

// samplePeakRSS records the daemon's peak RSS over consecutive
// intervals until the returned stop function is called; stop waits for
// the sampler and returns the per-interval peaks.
func (d *daemon) samplePeakRSS() func() ([]float64, error) {
	pid := strconv.Itoa(d.pid())
	quit := make(chan struct{})
	done := make(chan struct{})
	var peaks []float64
	var err error
	go func() {
		defer close(done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		if err = resetPeakRSS(pid); err != nil {
			return
		}
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			var mb float64
			if mb, err = procStatusMB(pid, "VmHWM"); err != nil {
				return
			}
			peaks = append(peaks, mb)
			if err = resetPeakRSS(pid); err != nil {
				return
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		<-done
		if err == nil && len(peaks) == 0 {
			err = fmt.Errorf("no RSS sample")
		}
		return peaks, err
	}
}

// latencies splits sample latencies by class.
func latencies(ss []sample, edit bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.edit == edit {
			out = append(out, s.latency)
		}
	}
	return out
}

// log reports the latency split and the steady-state check: edit
// latency in the first against the second half, and daemon RSS growth.
func (s *session) log() {
	first, second := s.halves()
	edits, resubs := latencies(s.load.samples, true), latencies(s.load.samples, false)
	e90, eq := tailQuantile(edits)
	r90, rq := tailQuantile(resubs)
	logf("serve: %d sweeps (median %.3fs steal-free, %.3fs wall), %d edits p50 %.1fms p%.0f %.1fms, %d resubmits p50 %.1fms p%.0f %.1fms",
		len(s.load.sweeps), median(s.load.sweeps), median(s.load.rawSweeps), len(edits), median(edits), eq*100, e90, len(resubs), median(resubs), rq*100, r90)
	logf("serve drift: edit p50 first half %.1fms, second half %.1fms (%+.1f%%); mcheckd RSS %.1fMB -> %.1fMB",
		median(first), median(second), 100*(median(second)/median(first)-1), s.a.rssMB, s.b.rssMB)
}
