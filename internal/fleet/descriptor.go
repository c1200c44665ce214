// Package fleet distributes the scheduler's analysis tasks over a
// pool of stateless remote workers. The paper's premise is that
// system-specific checks are cheap enough to run routinely; running
// them routinely for many users means one mcheckd process is no
// longer the unit of compute. The depot already names every unit of
// work machine-independently — program fingerprint × checker ×
// version × options — so a task can be shipped as a small descriptor
// instead of a closure: the worker reads its inputs from the shared
// depot, recomputes the artifact, writes it back, and echoes it to
// the dispatcher.
//
// The package has three halves:
//
//   - the wire format (this file): Descriptor, the serializable task
//     form, versioned like depot artifact kinds so a mixed-version
//     fleet refuses work it does not understand instead of producing
//     wrong artifacts; Bundle, the per-request source snapshot workers
//     parse from; and Result, the worker's reply.
//
//   - a Dispatcher (dispatch.go): per-worker queues with
//     work-stealing, retry with exponential backoff across workers,
//     per-task deadlines, and failure-driven health tracking. A task
//     the fleet cannot finish is returned as an error so the caller
//     can fall back to local execution — a degraded fleet is never
//     worse than running with -j N.
//
//   - the worker HTTP surface (worker.go): TaskHandler serves POST
//     /task for cmd/mcheckworker, classifying executor errors into
//     retryable (another worker may succeed) and terminal (every
//     worker would reject the same descriptor).
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"

	"flashmc/internal/depot"
	"flashmc/internal/flash"
	"flashmc/internal/obs"
)

const (
	// DescFormat versions the descriptor wire format. A worker that
	// receives a descriptor in any other format must refuse it: fields
	// it does not understand could silently change what the output key
	// is supposed to contain. v2 added the trace_id/parent_span
	// correlation fields.
	DescFormat = "task/v2"
	// BundleKind is the depot artifact kind of request source bundles.
	BundleKind = "bundle/v1"
)

// Task kinds, mirroring the scheduler pipeline's three task layers
// plus the whole-program passes.
const (
	// KindSM runs one state-machine checker over one function.
	KindSM = "sm"
	// KindSummary builds one function's inter-procedural summary.
	KindSummary = "summary"
	// KindLanes runs the inter-procedural lane pass for one handler.
	KindLanes = "lanes"
	// KindGlobal runs a whole-program checker pass.
	KindGlobal = "glob"
)

// Descriptor is one schedulable unit of analysis in serializable
// form: everything a stateless worker needs to locate its inputs in
// the shared depot, recompute the artifact, and store it under the
// output key the dispatcher expects. Descriptors deliberately carry
// redundant identity (function name, checker version, spec hash) so
// the worker can cross-check its own parse against the dispatcher's
// before writing anything under the output address.
type Descriptor struct {
	// Format is the wire-format version (DescFormat).
	Format string `json:"format"`
	// Kind selects the task layer: KindSM, KindSummary, KindLanes, or
	// KindGlobal.
	Kind string `json:"kind"`
	// SrcHash addresses the request's source Bundle in the depot
	// (sched.SourceHash of the file set and roots).
	SrcHash string `json:"src_hash"`
	// SpecOpt is the protocol-spec hash the bundle must match
	// (sched.SpecHash); it also salts the bundle's depot key.
	SpecOpt string `json:"spec_opt"`
	// Output is the depot key the artifact must be stored under. Its
	// Source field doubles as an integrity check: the worker's own
	// fingerprint of the task's unit must reproduce it.
	Output depot.Key `json:"output"`
	// Checker is the registry name of the checker ("lanes" for
	// summary and lane tasks; empty only for ad-hoc SM tasks).
	Checker string `json:"checker,omitempty"`
	// CheckerVersion pins the checker revision the dispatcher keyed
	// the artifact with; a worker running another revision refuses.
	CheckerVersion string `json:"checker_version,omitempty"`
	// FnIndex and Fn name the function for KindSM and KindSummary
	// (index into the parsed program's definition list, plus the name
	// for cross-checking).
	FnIndex int    `json:"fn_index,omitempty"`
	Fn      string `json:"fn,omitempty"`
	// Handler names the root handler for KindLanes.
	Handler string `json:"handler,omitempty"`
	// AdhocSrc carries the metal source of an ad-hoc checker; when
	// set, the worker compiles it instead of consulting the registry.
	AdhocSrc string `json:"adhoc_src,omitempty"`
	// TraceID correlates this task with the /check request that spawned
	// it (derived from the leader's X-Request-Id). When set, the worker
	// records its own execution spans and returns them in the Result so
	// the leader can merge one end-to-end trace.
	TraceID string `json:"trace_id,omitempty"`
	// ParentSpan names the leader-side scheduler task this descriptor
	// executes (e.g. "sm:3:17"), tying worker spans back to the
	// dispatch spans for the same task.
	ParentSpan string `json:"parent_span,omitempty"`
}

// Validate checks the fields every descriptor needs before it can be
// dispatched or executed.
func (d *Descriptor) Validate() error {
	if d.Format != DescFormat {
		return fmt.Errorf("fleet: descriptor format %q, want %q", d.Format, DescFormat)
	}
	switch d.Kind {
	case KindSM, KindSummary, KindLanes, KindGlobal:
	default:
		return fmt.Errorf("fleet: unknown task kind %q", d.Kind)
	}
	if d.SrcHash == "" {
		return errors.New("fleet: descriptor without src_hash")
	}
	if d.Output.Kind == "" || d.Output.Source == "" {
		return errors.New("fleet: descriptor without output key")
	}
	if d.Kind == KindLanes && d.Handler == "" {
		return errors.New("fleet: lanes descriptor without handler")
	}
	if (d.Kind == KindSM || d.Kind == KindSummary) && d.Fn == "" {
		return errors.New("fleet: function descriptor without fn")
	}
	return nil
}

// Bundle is the per-request source snapshot workers parse from: the
// exact file set and root ordering the dispatcher loaded, plus the
// protocol spec the jobs were built under. It is stored once per
// request in the shared depot under BundleKey.
type Bundle struct {
	Files map[string]string `json:"files"`
	Roots []string          `json:"roots"`
	Spec  *flash.Spec       `json:"spec"`
}

// BundleKey is the depot address of a request's source bundle.
func BundleKey(srcHash, specOpt string) depot.Key {
	return depot.Key{Kind: BundleKind, Source: srcHash, Options: specOpt}
}

// Result is the worker's reply to one executed descriptor: the id of
// the output key it stored the artifact under (echoed so the
// dispatcher can verify the worker computed the task it was sent) and
// the artifact bytes themselves, so the caller does not race a
// read-after-write through the depot. For traced descriptors
// (TraceID set) it also carries the worker's execution spans, with
// timestamps relative to when the worker started handling the
// request, and the worker's own handling time — the dispatcher
// estimates the clock offset from its round-trip time minus ElapsedUS
// and shifts the spans onto the leader's time base.
type Result struct {
	ID        string          `json:"id"`
	Artifact  json.RawMessage `json:"artifact"`
	Spans     []obs.Event     `json:"spans,omitempty"`
	ElapsedUS float64         `json:"elapsed_us,omitempty"`
}

// ErrReject marks a terminal executor failure: the descriptor is
// well-formed HTTP-wise but this fleet cannot legitimately execute it
// (checker version skew, fingerprint mismatch against the worker's own
// parse, unknown checker). Retrying on another same-version worker
// would fail identically, so the dispatcher falls straight back to
// local execution.
var ErrReject = errors.New("fleet: descriptor rejected")
