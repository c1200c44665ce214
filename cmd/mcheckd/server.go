package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/cover"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/fleet"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
	"flashmc/internal/sched"
)

// checkRequest is the POST /check body. Files maps file names to
// contents; flash-includes.h is provided by the server. Roots are the
// translation units to parse (default: every *.c file, sorted).
// Checkers maps names to ad-hoc metal checker sources. Flash selects
// the built-in suite (default true). Triage replays each SM report
// over feasible paths and ranks it certain / likely-fp; TriageMode
// picks the ladder ("slice", or "sym" to add the bounded symbolic
// evaluator, whose refutations rank infeasible) and implies Triage.
// Verdicts are cached in the server depot, so a warm re-triage of an
// unchanged tree skips path replay.
type checkRequest struct {
	Files      map[string]string `json:"files"`
	Roots      []string          `json:"roots,omitempty"`
	Checkers   map[string]string `json:"checkers,omitempty"`
	Flash      *bool             `json:"flash,omitempty"`
	Triage     bool              `json:"triage,omitempty"`
	TriageMode string            `json:"triage_mode,omitempty"`
}

// triageMode resolves the request's effective triage ladder: the
// empty mode means triage is off.
func (r checkRequest) triageMode() (lint.TriageMode, bool) {
	switch r.TriageMode {
	case "":
		if r.Triage {
			return lint.ModeSlice, true
		}
		return "", true
	case "slice":
		return lint.ModeSlice, true
	case "sym":
		return lint.ModeSym, true
	}
	return "", false
}

type traceStepJSON struct {
	File     string            `json:"file,omitempty"`
	Line     int               `json:"line,omitempty"`
	Col      int               `json:"col,omitempty"`
	Rule     string            `json:"rule,omitempty"`
	From     string            `json:"from,omitempty"`
	To       string            `json:"to,omitempty"`
	Event    string            `json:"event,omitempty"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

type reportJSON struct {
	Checker    string          `json:"checker"`
	Rule       string          `json:"rule,omitempty"`
	Fn         string          `json:"fn,omitempty"`
	File       string          `json:"file,omitempty"`
	Line       int             `json:"line,omitempty"`
	Col        int             `json:"col,omitempty"`
	Msg        string          `json:"msg"`
	Confidence string          `json:"confidence,omitempty"`
	Reason     string          `json:"reason,omitempty"`
	Trace      []traceStepJSON `json:"trace,omitempty"`
}

type statsJSON struct {
	Functions     int      `json:"functions"`
	Tasks         int      `json:"tasks"`
	MaxQueueDepth int      `json:"max_queue_depth"`
	CacheHits     int      `json:"cache_hits"`
	CacheMisses   int      `json:"cache_misses"`
	Reanalyzed    []string `json:"reanalyzed,omitempty"`
	GlobalReruns  int      `json:"global_reruns"`
	ElapsedMS     float64  `json:"elapsed_ms"`
	TaskMS        float64  `json:"task_ms"`
	QueueWaitMS   float64  `json:"queue_wait_ms"`
	// Decisions breaks cache lookups down by reason; RunID names the
	// run's ledger entry (GET /debug/runs/<id>).
	Decisions map[string]int `json:"decisions,omitempty"`
	RunID     string         `json:"run_id,omitempty"`
}

type checkResponse struct {
	Reports     []reportJSON `json:"reports"`
	ParseErrors []string     `json:"parse_errors,omitempty"`
	Stats       statsJSON    `json:"stats"`
}

// flight is one in-progress /check computation shared by identical
// concurrent requests; followers wait on done and reuse the outcome.
type flight struct {
	done    chan struct{}
	code    int
	resp    checkResponse
	err     string // non-empty: the leader failed with this message
	traceID string // the leader's request id; followers echo it in X-Trace-Id
}

// traceRingCap bounds how many merged request traces the server keeps
// for /debug/trace; the oldest is evicted FIFO.
const traceRingCap = 32

// server owns one analyzer over one depot; every request shares the
// cache, which is what makes the second check of a tree warm. Metrics
// live in a per-server obs.Registry so concurrent servers (tests) do
// not share counters; /metrics appends the process-global obs.Default
// registry (engine, sched, depot metrics) after it.
type server struct {
	analyzer  *sched.Analyzer
	store     *depot.Depot
	progCache *sched.ProgramCache
	mux       *http.ServeMux
	reg       *obs.Registry
	coverage  *cover.Set
	fleet     *fleet.Dispatcher

	requests    *obs.Counter
	errored     *obs.Counter
	reqSeconds  *obs.Counter
	tasks       *obs.Counter
	taskSeconds *obs.Counter
	hits        *obs.Counter
	misses      *obs.Counter
	sfShared    *obs.Counter
	pcHits      *obs.Counter
	pcMisses    *obs.Counter
	inflight    *obs.Gauge
	queueMax    *obs.Gauge
	shardBytes  *obs.GaugeVec

	nextReqID atomic.Uint64

	flightMu sync.Mutex
	flights  map[string]*flight

	// traceMu guards the bounded ring of merged request traces served
	// by /debug/trace/<id>.
	traceMu    sync.Mutex
	traces     map[string][]obs.Event
	traceOrder []string

	// testLeaderHook, when set, runs in the leader between claiming a
	// flight and computing it — lets tests hold the leader open while
	// followers pile onto the flight.
	testLeaderHook func()
}

func newServer(store *depot.Depot, workers int) *server {
	reg := obs.NewRegistry()
	covSet := cover.NewSet()
	s := &server{
		analyzer:  &sched.Analyzer{Depot: store, Workers: workers, Coverage: covSet},
		store:     store,
		progCache: &sched.ProgramCache{Depot: store},
		mux:       http.NewServeMux(),
		reg:       reg,
		coverage:  covSet,
		flights:   map[string]*flight{},
		traces:    map[string][]obs.Event{},

		requests:    reg.Counter("mcheckd_requests_total", "POST /check requests received"),
		errored:     reg.Counter("mcheckd_request_errors_total", "requests answered with an error status"),
		reqSeconds:  reg.Counter("mcheckd_request_seconds_total", "wall time spent serving /check"),
		tasks:       reg.Counter("mcheckd_tasks_total", "scheduler tasks executed"),
		taskSeconds: reg.Counter("mcheckd_task_seconds_total", "cumulative task execution time"),
		hits:        reg.Counter("mcheckd_cache_hits_total", "depot lookups served from cache"),
		misses:      reg.Counter("mcheckd_cache_misses_total", "depot lookups that required analysis"),
		sfShared:    reg.Counter("mcheckd_singleflight_shared_total", "/check requests that shared an identical in-flight computation"),
		pcHits:      reg.Counter("mcheckd_program_cache_hits_total", "/check requests whose parsed program was served from the program cache (frontend skipped)"),
		pcMisses:    reg.Counter("mcheckd_program_cache_misses_total", "/check requests that ran the frontend"),
		inflight:    reg.Gauge("mcheckd_inflight_requests", "/check requests currently executing"),
		queueMax:    reg.Gauge("mcheckd_queue_depth_max", "largest ready-queue depth seen in any request"),
		shardBytes:  reg.GaugeVec("depot_shard_bytes", "bytes of artifacts per depot shard", "shard"),
	}
	reg.GaugeFunc("mcheckd_cache_hit_rate", "hits / (hits + misses) over the process lifetime", func() float64 {
		h, m := s.hits.Value(), s.misses.Value()
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
	reg.GaugeFunc("mcheckd_depot_entries", "artifacts currently in the depot", func() float64 {
		return float64(s.store.Stats().Entries)
	})
	reg.GaugeFunc("mcheckd_depot_bytes", "bytes of artifacts currently in the depot", func() float64 {
		return float64(s.store.Stats().Bytes)
	})

	s.mux.HandleFunc("/check", s.handleCheck)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/coverage", s.handleCoverage)
	s.mux.HandleFunc("/debug/timings", s.handleTimings)
	s.mux.HandleFunc("/debug/trace/", s.handleTrace)
	s.mux.HandleFunc("/debug/fleet", s.handleFleet)
	s.mux.HandleFunc("/debug/runs", s.handleRuns)
	s.mux.HandleFunc("/debug/runs/", s.handleRuns)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// setFleet routes cache-missed scheduler tasks through the worker
// dispatcher. Must be called before serving traffic.
func (s *server) setFleet(d *fleet.Dispatcher) {
	s.fleet = d
	s.analyzer.Remote = d
}

func (s *server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errored.Inc()
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Reuse the caller's request id when it sent one, so traces and
	// logs correlate across hops; otherwise mint a process-local id.
	// The id doubles as the request's trace id.
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = fmt.Sprintf("req-%06d", s.nextReqID.Add(1))
	}
	w.Header().Set("X-Request-Id", reqID)
	start := time.Now()
	s.requests.Inc()
	s.inflight.Add(1)
	status := http.StatusOK
	defer func() {
		s.inflight.Add(-1)
		dur := time.Since(start)
		s.reqSeconds.Add(dur.Seconds())
		log.Printf("mcheckd: id=%s method=%s path=%s status=%d dur=%s", reqID, r.Method, r.URL.Path, status, dur.Round(time.Microsecond))
	}()

	var req checkRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status = http.StatusBadRequest
		s.fail(w, status, "bad request body: %v", err)
		return
	}
	if len(req.Files) == 0 {
		status = http.StatusBadRequest
		s.fail(w, status, "no files")
		return
	}
	triageMode, ok := req.triageMode()
	if !ok {
		status = http.StatusBadRequest
		s.fail(w, status, "triage_mode %q: want \"slice\" or \"sym\"", req.TriageMode)
		return
	}
	roots := req.Roots
	if len(roots) == 0 {
		for name := range req.Files {
			if strings.HasSuffix(name, ".c") {
				roots = append(roots, name)
			}
		}
		sort.Strings(roots)
	}
	if len(roots) == 0 {
		status = http.StatusBadRequest
		s.fail(w, status, "no roots (no *.c files)")
		return
	}

	// The program cache serves identical source trees without running
	// the frontend: a hit returns the already-parsed (immutable)
	// program plus its fingerprints, so the warm path goes straight to
	// the scheduler. Concurrent misses for one tree parse once.
	srcHash := sched.SourceHash(req.Files, roots)
	cp, warmProg, err := s.progCache.Load(srcHash, func() (*core.Program, error) {
		return core.Load("mcheckd", cpp.Layered(cpp.MapSource(req.Files), flash.HeaderSource()), roots)
	})
	if err != nil {
		status = http.StatusBadRequest
		s.fail(w, status, "load: %v", err)
		return
	}
	if warmProg {
		s.pcHits.Inc()
	} else {
		s.pcMisses.Inc()
	}
	prog := cp.Prog
	resp := checkResponse{Reports: []reportJSON{}}
	for _, e := range prog.ParseErrors {
		resp.ParseErrors = append(resp.ParseErrors, e.Error())
	}
	if len(resp.ParseErrors) > 0 {
		status = http.StatusUnprocessableEntity
		writeJSON(w, status, resp)
		return
	}

	// Assemble jobs exactly like cmd/mcheck: ad-hoc checkers first
	// (sorted by name — the request carries them in a map), then the
	// built-in suite. smByName keeps each SM job's machine for triage.
	spec := sched.ConventionSpec(prog)
	specOpt := sched.SpecHash(spec)
	var jobs []sched.Job
	smByName := map[string]*engine.SM{}
	smVersions := map[string]string{}
	adhoc := make([]string, 0, len(req.Checkers))
	for name := range req.Checkers {
		adhoc = append(adhoc, name)
	}
	sort.Strings(adhoc)
	for _, name := range adhoc {
		src := req.Checkers[name]
		mp, err := prog.CompileChecker(src)
		if err != nil {
			status = http.StatusBadRequest
			s.fail(w, status, "checker %s: %v", name, err)
			return
		}
		job := sched.AdhocJob(mp, src, specOpt)
		jobs = append(jobs, job)
		smByName[mp.SM.Name] = mp.SM
		smVersions[mp.SM.Name] = job.Version
	}
	if req.Flash == nil || *req.Flash {
		jobs = append(jobs, sched.FlashJobs(spec)...)
		// Reports carry the SM's own name, which can differ from the
		// registry name (buffer_race runs the wait_for_db machine), so
		// the triage map keys on sm.Name.
		for _, chk := range checkers.All() {
			if prov, ok := chk.(checkers.SMProvider); ok {
				sm, _ := prov.BuildSM(spec)
				smByName[sm.Name] = sm
				smVersions[sm.Name] = chk.Version()
			}
		}
	}
	if len(jobs) == 0 {
		status = http.StatusBadRequest
		s.fail(w, status, "nothing to run: flash disabled and no ad-hoc checkers")
		return
	}

	// Single-flight: concurrent requests for the same program, job
	// list, and triage mode share one computation. The key is the
	// program fingerprint plus everything that shapes the response.
	fl, leader := s.joinFlight(flightKey(cp.ProgramFP, jobs, triageMode))
	if !leader {
		// Counted at join time: this request will reuse the leader's
		// work whether or not it has finished yet.
		s.sfShared.Inc()
		<-fl.done
		log.Printf("mcheckd: id=%s singleflight=shared", reqID)
		if fl.err != "" {
			status = fl.code
			s.errored.Inc()
			http.Error(w, fl.err, fl.code)
			return
		}
		// The follower did no work of its own; its trace is the
		// leader's, addressed by the leader's request id.
		if fl.traceID != "" {
			w.Header().Set("X-Trace-Id", fl.traceID)
		}
		status = fl.code
		writeJSON(w, fl.code, fl.resp)
		return
	}

	if s.testLeaderHook != nil {
		s.testLeaderHook()
	}

	// Every leader request runs under its own tracer: the leader is
	// process 1 in the merged trace, workers claim higher pids as the
	// dispatcher folds their spans in (see Dispatcher.mergeWorkerSpans).
	tracer := obs.NewTracer()
	tracer.SetProcess(1, "mcheckd")
	creq := sched.Request{Prog: prog, Spec: spec, Jobs: jobs,
		Fingerprints: cp.Fingerprints, ProgramFP: cp.ProgramFP,
		Tracer: tracer, TraceID: reqID}
	// With a fleet configured, publish the source bundle so stateless
	// workers can parse this exact tree, then let the scheduler
	// dispatch cache-missed tasks remotely. A failed publish just runs
	// the request locally — never worse than no fleet.
	if s.fleet != nil {
		if err := sched.PutBundle(s.store, srcHash, req.Files, roots, spec); err != nil {
			log.Printf("mcheckd: id=%s bundle: %v (running locally)", reqID, err)
		} else {
			creq.SrcHash = srcHash
		}
	}
	res, err := s.analyzer.Check(creq)
	if err != nil {
		status = http.StatusInternalServerError
		fl.code, fl.err = status, fmt.Sprintf("check: %v", err)
		s.finishFlight(fl)
		s.fail(w, status, "check: %v", err)
		return
	}
	// Leader-only: followers reuse the result, so the underlying work
	// is counted once.
	s.tasks.Add(float64(res.Stats.Tasks))
	s.taskSeconds.Add(res.Stats.TaskTime.Seconds())
	s.hits.Add(float64(res.Stats.CacheHits))
	s.misses.Add(float64(res.Stats.CacheMisses))
	s.queueMax.SetMax(float64(res.Stats.MaxQueueDepth))

	// Ledger: one entry per leader run (followers reuse the leader's
	// work, so one computation is one entry). Failure to append is
	// logged, never fatal — the ledger is observability, not output.
	entry := sched.NewRunEntry(&creq, res, s.coverage)
	if err := sched.AppendRun(s.store, entry); err != nil {
		log.Printf("mcheckd: id=%s ledger: %v", reqID, err)
		entry.ID = ""
	}

	resp.Reports = s.rankReports(prog, cp.ProgramFP, res.Reports, smByName, smVersions, triageMode)
	resp.Stats = statsJSON{
		Functions:     res.Stats.Functions,
		Tasks:         res.Stats.Tasks,
		MaxQueueDepth: res.Stats.MaxQueueDepth,
		CacheHits:     res.Stats.CacheHits,
		CacheMisses:   res.Stats.CacheMisses,
		Reanalyzed:    res.Stats.Reanalyzed,
		GlobalReruns:  res.Stats.GlobalReruns,
		ElapsedMS:     float64(res.Stats.Elapsed) / float64(time.Millisecond),
		TaskMS:        float64(res.Stats.TaskTime) / float64(time.Millisecond),
		QueueWaitMS:   float64(res.Stats.QueueWait) / float64(time.Millisecond),
		Decisions:     res.Stats.Decisions,
		RunID:         entry.ID,
	}
	s.storeTrace(reqID, tracer.Events())
	w.Header().Set("X-Trace-Id", reqID)
	fl.code, fl.resp, fl.traceID = http.StatusOK, resp, reqID
	s.finishFlight(fl)
	writeJSON(w, http.StatusOK, resp)
}

// storeTrace retains the merged trace of one completed request for
// /debug/trace/<id>, evicting the oldest beyond traceRingCap.
func (s *server) storeTrace(id string, events []obs.Event) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if _, ok := s.traces[id]; !ok {
		s.traceOrder = append(s.traceOrder, id)
	}
	s.traces[id] = events
	for len(s.traceOrder) > traceRingCap {
		delete(s.traces, s.traceOrder[0])
		s.traceOrder = s.traceOrder[1:]
	}
}

// handleTrace serves one request's merged Chrome trace_event file:
// leader dispatch spans plus the execution spans of every worker that
// ran one of its tasks, aligned onto the leader's clock. Open it in
// chrome://tracing or Perfetto.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	s.traceMu.Lock()
	events, ok := s.traces[id]
	s.traceMu.Unlock()
	if id == "" || !ok {
		http.Error(w, "unknown trace id", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteTraceJSON(w, events); err != nil {
		log.Printf("mcheckd: /debug/trace/%s: %v", id, err)
	}
}

// fleetDebugResponse is the /debug/fleet body: live dispatcher state
// plus the tail of the task flight recorder.
type fleetDebugResponse struct {
	Fleet        bool                 `json:"fleet"`
	Workers      []fleet.WorkerStatus `json:"workers,omitempty"`
	FlightTotal  uint64               `json:"flight_total"`
	FlightEvents []obs.FlightEvent    `json:"flight_events"`
}

// handleFleet reports what the dispatcher is doing right now and what
// it recently did: per-worker queue depth, inflight count and health,
// and the flight recorder's task lifecycle tail (dispatched, stolen,
// retried, rejected, completed, fell-back, worker-down/up). With
// ?trace=<id> the flight tail is filtered to one request's events
// (FlightTotal stays the ring-wide count).
func (s *server) handleFleet(w http.ResponseWriter, r *http.Request) {
	resp := fleetDebugResponse{
		FlightTotal:  fleet.FlightTotal(),
		FlightEvents: fleet.FlightEvents(),
	}
	if want := r.URL.Query().Get("trace"); want != "" {
		kept := resp.FlightEvents[:0]
		for _, e := range resp.FlightEvents {
			if e.Trace == want {
				kept = append(kept, e)
			}
		}
		resp.FlightEvents = kept
	}
	if resp.FlightEvents == nil {
		resp.FlightEvents = []obs.FlightEvent{}
	}
	if s.fleet != nil {
		resp.Fleet = true
		resp.Workers = s.fleet.Status()
	}
	writeJSON(w, http.StatusOK, resp)
}

// flightKey content-addresses one /check computation. The program
// fingerprint comes from the program cache, so joining a flight never
// re-walks the AST.
func flightKey(progFP string, jobs []sched.Job, mode lint.TriageMode) string {
	h := sha256.New()
	h.Write([]byte(progFP))
	for _, j := range jobs {
		fmt.Fprintf(h, "|%s|%s|%s", j.Name, j.Version, j.Options)
	}
	fmt.Fprintf(h, "|triage=%s", mode)
	return hex.EncodeToString(h.Sum(nil))
}

// joinFlight returns the flight for key, reporting whether the caller
// is the leader (and must compute and finish it).
func (s *server) joinFlight(key string) (*flight, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if fl, ok := s.flights[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	return fl, true
}

// finishFlight publishes the leader's outcome and retires the key so
// later identical requests compute fresh (their inputs may have been
// GC'd meanwhile).
func (s *server) finishFlight(fl *flight) {
	s.flightMu.Lock()
	for k, v := range s.flights {
		if v == fl {
			delete(s.flights, k)
			break
		}
	}
	s.flightMu.Unlock()
	close(fl.done)
}

// rankReports orders the combined report stream for the response:
// with triage, each SM report is replayed over feasible paths (the
// verdicts served from the depot when warm) and certain reports rank
// above demoted ones (likely-fp, then infeasible); within a rank,
// position order. Without triage every report keeps the CLI's
// position order and carries no confidence.
func (s *server) rankReports(prog *core.Program, progFP string, reports []engine.Report, smByName map[string]*engine.SM, smVersions map[string]string, mode lint.TriageMode) []reportJSON {
	var ranked []lint.RankedReport
	if mode != "" {
		ranked, _ = s.analyzer.TriageReports(sched.TriageRequest{Prog: prog,
			ProgramFP: progFP, SMs: smByName, Versions: smVersions,
			Reports: reports, Options: lint.TriageOptions{Mode: mode}})
		lint.SortRanked(ranked)
	} else {
		ranked = make([]lint.RankedReport, 0, len(reports))
		for _, r := range reports {
			ranked = append(ranked, lint.RankedReport{Report: r})
		}
		sort.SliceStable(ranked, func(i, j int) bool {
			a, b := ranked[i], ranked[j]
			if a.Pos.File != b.Pos.File {
				return a.Pos.File < b.Pos.File
			}
			return a.Pos.Line < b.Pos.Line
		})
	}

	out := make([]reportJSON, 0, len(ranked))
	for _, r := range ranked {
		rj := reportJSON{
			Checker:    r.SM,
			Rule:       r.Rule,
			Fn:         r.Fn,
			File:       r.Pos.File,
			Line:       r.Pos.Line,
			Col:        r.Pos.Col,
			Msg:        r.Msg,
			Confidence: string(r.Confidence),
			Reason:     r.Reason,
		}
		for _, st := range r.Trace {
			rj.Trace = append(rj.Trace, traceStepJSON{
				File: st.Pos.File, Line: st.Pos.Line, Col: st.Pos.Col,
				Rule: st.Rule, From: st.From, To: st.To,
				Event: st.Event, Bindings: st.Bindings,
			})
		}
		out = append(out, rj)
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Per-shard occupancy is sampled at scrape time; the shard set is
	// fixed for the depot's lifetime, so samples never go stale.
	for i, ss := range s.store.Stats().Shards {
		s.shardBytes.With(fmt.Sprint(i)).Set(float64(ss.Bytes))
	}
	s.reg.WritePrometheus(w)
	if s.fleet == nil {
		// Process-global metrics (engine, sched, depot) follow the
		// per-server families; the name spaces are disjoint.
		obs.Default.WritePrometheus(w)
		return
	}
	// Metrics federation: scrape every configured worker on demand and
	// re-export its fleet_worker_* families with a worker label, so one
	// scrape of the daemon sees the whole fleet. Families the
	// federation re-emits are excluded from this process's own
	// exposition — the fleet_worker_* namespace belongs to worker
	// processes, and a family may not be declared twice.
	scrapes, errs := s.fleet.ScrapeWorkers(r.Context())
	for addr, err := range errs {
		log.Printf("mcheckd: /metrics scrape %s: %v", addr, err)
	}
	keep := func(name string) bool { return strings.HasPrefix(name, "fleet_worker_") }
	fed := obs.FederatedNames(scrapes, keep)
	obs.Default.WritePrometheusFiltered(w, func(name string) bool { return !fed[name] })
	if err := obs.WriteFederated(w, scrapes, "worker", keep); err != nil {
		log.Printf("mcheckd: /metrics federate: %v", err)
	}
}

// handleCoverage serves the accumulated coverage/v1 artifact: every
// rule, state, pattern alternative and branch refinement each checker
// has fired across all /check requests this process has served (warm
// replays included — coverage rides in the depot artifact).
func (s *server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.coverage.Snapshot().WriteJSON(w); err != nil {
		log.Printf("mcheckd: /debug/coverage: %v", err)
	}
}

// handleTimings serves the live wall-time attribution: per-checker
// totals and quantiles, per-rule breakdowns, and the slowest function
// each checker saw. Warm cache hits contribute no time, so a fully
// cached process reports zeros here while /debug/coverage stays full.
func (s *server) handleTimings(w http.ResponseWriter, r *http.Request) {
	timings := s.coverage.Timings()
	if timings == nil {
		timings = []cover.Timing{}
	}
	writeJSON(w, http.StatusOK, timings)
}

// healthResponse is the /healthz readiness report: depot reachability
// plus per-worker fleet liveness, so a load balancer can drain a
// daemon whose cache volume or worker fleet is gone.
type healthResponse struct {
	Status  string               `json:"status"` // "ok" or "degraded"
	Depot   string               `json:"depot"`  // "ok" or the ping error
	Workers []fleet.WorkerStatus `json:"workers,omitempty"`
}

// handleHealthz reports readiness, not just liveness: 200 only while
// the depot is reachable and, with a fleet configured, at least one
// worker is live (a fleet daemon with zero workers still answers
// correctly via local fallback, but it is the worst-provisioned
// instance in the pool — the balancer should prefer its peers).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok", Depot: "ok"}
	code := http.StatusOK
	if err := s.store.Ping(); err != nil {
		resp.Status, resp.Depot = "degraded", err.Error()
		code = http.StatusServiceUnavailable
	}
	if s.fleet != nil {
		resp.Workers = s.fleet.Status()
		up := 0
		for _, ws := range resp.Workers {
			if ws.Up {
				up++
			}
		}
		if up == 0 {
			resp.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, resp)
}
