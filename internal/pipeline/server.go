package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mimdloop/internal/core"
	"mimdloop/internal/exec"
)

// maxRequestBody bounds a request body on every POST route. Loop sources
// are tiny, so a megabyte is generous for typical batches; note it binds
// before the per-item source cap for large batches — 64 items cannot
// each carry a near-64 KiB source in one request.
const maxRequestBody = 1 << 20

// Server-side parameter caps: schedules cost O(iterations x nodes)
// placements (and the reply embeds them all), and the greedy scheduler
// considers every offered processor per placement, so an unauthenticated
// request must not pick unbounded values in any dimension — including the
// node count of the compiled graph, which also bounds the "sufficient"
// processor default.
// maxCommCost is deliberately small: the configuration-window height and
// drift bound both scale with k (see core.Options.withDefaults), making
// scheduling cost superlinear in k — k=10,000 already takes ~30s of CPU
// on a 5-node loop. The paper's experiments use k <= 7.
const (
	maxIterations = 10_000
	maxProcessors = 1024
	maxCommCost   = 256
	maxGrain      = 64
	maxGraphNodes = 512
	maxPlacements = 500_000 // iterations x nodes ceiling

	// Pre-parse caps: parsing and compiling are linear in source size,
	// and these caps bound that linear work (and compile-cache
	// retention) cheaply before Compile runs. The loop language puts one
	// statement per line, so a line cap of twice the node cap leaves
	// comfortable room for braces and blank lines.
	maxSourceBytes = 64 << 10
	maxSourceLines = 2 * maxGraphNodes

	// Aggregate-endpoint caps: a batch is at most maxBatchItems loops
	// (each under the per-item caps above), and a tune grid at most
	// maxTunePoints (p, k) cells. Both reject before any scheduling work.
	maxBatchItems = 64
	maxTunePoints = 128

	// Measured-evaluation caps. Each trial is one full simulated-machine
	// run of a plan — O(iterations × nodes) work again on top of
	// scheduling — so the trial count is capped per request and the
	// total simulation budget of a tune (grid points × trials, the grid
	// sized as AutoTune will actually run it) is capped alongside the
	// grid cap: a request can spend its 128 points statically, or fewer
	// points measured more thoroughly, but never 128 × 32 simulations.
	// Fluctuation amplitude is capped like the comm cost it perturbs.
	maxEvalTrials     = 32
	maxTuneTrialCells = 1024 // grid points × trials ceiling
	maxEvalFluct      = maxCommCost

	// Goroutine-backend caps, much tighter than the simulator's: a gort
	// trial spawns real goroutines and burns wall-clock CPU on the
	// serving host (it cannot be compressed by simulation shortcuts), so
	// an unauthenticated request gets a handful of real executions, not
	// a thousand.
	maxGortEvalTrials     = 8
	maxGortTuneTrialCells = 64 // grid points × trials ceiling, gort backend

	// aggregateWorkers bounds the internal pool of one batch or tune
	// computation, so an admitted aggregate request cannot fan out to
	// unbounded parallel scheduling on its own.
	aggregateWorkers = 4
)

// ScheduleRequest is the POST /v1/schedule body (and one item of a
// /v1/batch request, and one entry of a warm-up corpus). The same fields
// are accepted as a JSON object; a body that does not start with '{' is
// taken to be raw loop source with default parameters.
type ScheduleRequest struct {
	// Source is the loop-language program to schedule.
	Source string `json:"source"`
	// CommCost is k (default 2, matching cmd/loopsched).
	CommCost *int `json:"comm_cost"`
	// Processors for the Cyclic subset (0 = sufficient).
	Processors int `json:"processors"`
	// Iterations to schedule (default 100).
	Iterations int `json:"iterations"`
	// Fold applies the Section 3 non-Cyclic folding heuristic.
	Fold bool `json:"fold"`
	// Grain fuses this many consecutive iterations per placement chunk
	// (0 and 1 both mean unchunked — the default).
	Grain int `json:"grain"`
}

// params resolves the request's scheduling parameters, applying the
// serving defaults (k = 2, 100 iterations).
func (r *ScheduleRequest) params() (core.Options, int) {
	k := 2
	if r.CommCost != nil {
		k = *r.CommCost
	}
	n := r.Iterations
	if n == 0 {
		n = 100
	}
	return core.Options{Processors: r.Processors, CommCost: k, FoldNonCyclic: r.Fold, Grain: r.Grain}, n
}

// check validates the request's scalar parameters and source against the
// serving caps; on failure the int is the HTTP status to report.
func (r *ScheduleRequest) check() (int, error) {
	opts, n := r.params()
	if status, err := checkScheduleParams(n, []int{opts.Processors}, []int{opts.CommCost}, []int{opts.Grain}); err != nil {
		return status, err
	}
	return checkSource(r.Source)
}

// checkScheduleParams is the one scalar-range validator behind every
// scheduling endpoint: iterations plus any number of candidate processor
// budgets, comm-cost estimates and grains (single-valued for schedule
// and batch items, whole grid axes for tune). On failure the int is the
// HTTP status to report.
func checkScheduleParams(n int, procs, costs, grains []int) (int, error) {
	if n < 0 || n > maxIterations {
		return http.StatusBadRequest,
			fmt.Errorf("iterations %d out of range [1, %d]", n, maxIterations)
	}
	for _, p := range procs {
		if p < 0 || p > maxProcessors {
			return http.StatusBadRequest,
				fmt.Errorf("processors %d out of range [0, %d]", p, maxProcessors)
		}
	}
	for _, k := range costs {
		if k < 0 || k > maxCommCost {
			return http.StatusBadRequest,
				fmt.Errorf("comm_cost %d out of range [0, %d]", k, maxCommCost)
		}
	}
	for _, g := range grains {
		if g < 0 || g > maxGrain {
			return http.StatusBadRequest,
				fmt.Errorf("grain %d out of range [0, %d]", g, maxGrain)
		}
	}
	return http.StatusOK, nil
}

// checkSource applies the pre-parse caps.
func checkSource(src string) (int, error) {
	switch {
	case len(src) > maxSourceBytes:
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("source is %d bytes, over the serving cap %d", len(src), maxSourceBytes)
	case strings.Count(src, "\n") >= maxSourceLines:
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("source has over %d lines, over the serving cap", maxSourceLines)
	}
	return http.StatusOK, nil
}

// checkGraphCaps applies the post-compile caps: graph size and the
// iterations x nodes work/reply bound.
func checkGraphCaps(nodes, n int) error {
	switch {
	case nodes > maxGraphNodes:
		return fmt.Errorf("loop has %d nodes, over the serving cap %d", nodes, maxGraphNodes)
	case n*nodes > maxPlacements:
		return fmt.Errorf("iterations x nodes = %d over the serving cap %d", n*nodes, maxPlacements)
	}
	return nil
}

// ScheduleResponse is the POST /v1/schedule reply.
type ScheduleResponse struct {
	Loop       string  `json:"loop"`
	Nodes      int     `json:"nodes"`
	GraphHash  string  `json:"graph_hash"`
	Iterations int     `json:"iterations"`
	Rate       float64 `json:"rate_cycles_per_iteration"`
	Makespan   int     `json:"makespan"`

	CyclicProcs    int  `json:"cyclic_procs"`
	FlowInProcs    int  `json:"flow_in_procs"`
	FlowOutProcs   int  `json:"flow_out_procs"`
	Folded         bool `json:"folded"`
	GreedyFallback bool `json:"greedy_fallback"`

	Pattern *PatternInfo `json:"pattern,omitempty"`

	// CacheHit reports the plan was served without rescheduling.
	CacheHit bool `json:"cache_hit"`

	// Simulated is the measured evaluation requested with ?simulate=1
	// (omitted otherwise).
	Simulated *MeasuredStats `json:"simulated,omitempty"`

	// MeasuredBy carries the plan's persisted measured annotations, one
	// per execution backend in backend-name order (omitted when the plan
	// was only ever scored statically). Unlike Simulated — a transient
	// probe's result — these are the measurements tunes and simulate
	// requests attached to the stored plan, the same block plan records
	// persist (codec v3).
	MeasuredBy []*MeasuredStats `json:"measured_by,omitempty"`

	// Schedule is the composed schedule in the internal/plan wire format
	// (graph embedded, so the reply is self-contained).
	Schedule json.RawMessage `json:"schedule"`
}

// PatternInfo summarizes the verified steady state.
type PatternInfo struct {
	Cycles    int     `json:"cycles"`
	IterShift int     `json:"iter_shift"`
	Rate      float64 `json:"rate"`
	Forced    bool    `json:"forced"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	// Items are scheduled independently; one invalid item never fails
	// its neighbours.
	Items []ScheduleRequest `json:"items"`
}

// BatchItemResult is one item's outcome in a BatchResponse. Error is
// empty exactly when the item scheduled; the reply carries plan summaries
// only — re-POST an item to /v1/schedule to fetch its full placement
// list, which the warm plan cache answers without rescheduling.
type BatchItemResult struct {
	Index      int     `json:"index"`
	Loop       string  `json:"loop,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	GraphHash  string  `json:"graph_hash,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Rate       float64 `json:"rate_cycles_per_iteration,omitempty"`
	Makespan   int     `json:"makespan,omitempty"`
	Procs      int     `json:"procs,omitempty"`
	CacheHit   bool    `json:"cache_hit,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/batch reply.
type BatchResponse struct {
	Count     int               `json:"count"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
	Results   []BatchItemResult `json:"results"`
}

// TuneRequest is the POST /v1/tune body.
type TuneRequest struct {
	// Source is the loop to tune.
	Source string `json:"source"`
	// Processors and CommCosts span the grid. Empty lists take the
	// AutoTune defaults (1..min(nodes, 8) and {1, 2, 3, 4}).
	Processors []int `json:"processors"`
	CommCosts  []int `json:"comm_costs"`
	// Grains adds a chunking-grain axis to the grid. Empty means the
	// single unchunked grain (today's grid, byte-identical).
	Grains []int `json:"grains"`
	// SerialThreshold short-circuits tiny loops: when > 0 and the
	// loop's total sequential work (iterations × total body latency)
	// is below it, the tune skips the grid and returns the
	// one-processor sequential plan. 0 (the default) disables it.
	SerialThreshold int `json:"serial_threshold"`
	// Iterations per grid point (default 100).
	Iterations int `json:"iterations"`
	// Objective is "min_rate" (default), "min_procs" or "efficiency".
	Objective string `json:"objective"`
	// Epsilon is the min_procs relative rate slack. Omitted means 0.05;
	// an explicit 0 means exact (only best-rate points qualify).
	Epsilon *float64 `json:"epsilon"`
	// Fold applies the folding heuristic at every point.
	Fold bool `json:"fold"`
	// Eval selects how grid points are scored. Omitted means static (the
	// scheduled rate).
	Eval *EvalRequest `json:"eval"`
}

// EvalRequest is the `eval` block of a tune request: which evaluator
// scores the grid, which execution backend runs it, and — for measured
// evaluation — the trial count, distribution objective and fluctuation
// model.
type EvalRequest struct {
	// Mode is "static" (default) or "measured".
	Mode string `json:"mode"`
	// Backend selects the execution model of a measured evaluation:
	// "sim" (default, the deterministic simulated machine), "gort" (the
	// real goroutine runtime, timed on the wall clock) or "csim" (the
	// calibrated simulator: sim trials rescaled to predicted nanoseconds
	// through the server's live fitted profile — deterministic and
	// billed like sim).
	Backend string `json:"backend"`
	// Objective selects the distribution statistic the grid is ranked
	// by: "mean" (default), "worst" or "p95".
	Objective string `json:"objective"`
	// Trials per grid point for measured evaluation. 0 means 5.
	Trials int `json:"trials"`
	// Fluct is the paper's mm: per-message extra delay in [0, mm-1]
	// (sim backend only).
	Fluct int `json:"fluct"`
	// Seed selects the fluctuation streams (sim backend only).
	Seed int64 `json:"seed"`
}

// measuredEvaluator resolves the block to the measured evaluator it
// describes. Callers must have validated it via checkEvalRequest first.
func (r *EvalRequest) measuredEvaluator() *MeasuredEvaluator {
	be, _ := exec.ForName(r.Backend)
	obj, _ := ParseEvalObjective(r.Objective)
	return &MeasuredEvaluator{
		Trials:    r.Trials,
		Fluct:     r.Fluct,
		Seed:      r.Seed,
		Backend:   be,
		Objective: obj,
	}
}

// evaluator resolves the block (nil = static) to the Evaluator AutoTune
// runs. Callers must have validated it via checkEvalRequest first.
func (r *EvalRequest) evaluator() Evaluator {
	if r.trials() > 0 {
		return r.measuredEvaluator()
	}
	return StaticEvaluator{}
}

// trials returns the per-point execution cost of the block (0 when
// static: no runs at all). The count is resolved by the evaluator/
// backend layer itself — default trials, then the backend's collapse
// rule (the sim backend runs one trial when fluctuation is off) — so
// the admission budget prices exactly what will run, with the same
// semantics library and CLI callers get.
func (r *EvalRequest) trials() int {
	if r == nil || r.Mode != "measured" {
		return 0
	}
	return r.measuredEvaluator().EffectiveTrials()
}

// checkEvalRequest validates an eval block against the serving caps.
func checkEvalRequest(r *EvalRequest) (int, error) {
	if r == nil {
		return http.StatusOK, nil
	}
	switch r.Mode {
	case "", "static", "measured":
	default:
		return http.StatusBadRequest,
			fmt.Errorf("unknown eval mode %q (want static or measured)", r.Mode)
	}
	if _, err := exec.ForName(r.Backend); err != nil {
		return http.StatusBadRequest,
			fmt.Errorf("unknown eval backend %q (want sim, gort or csim)", r.Backend)
	}
	if _, err := ParseEvalObjective(r.Objective); err != nil {
		return http.StatusBadRequest, fmt.Errorf("eval objective: %w", err)
	}
	if r.Trials < 0 || r.Trials > maxEvalTrials {
		return http.StatusBadRequest,
			fmt.Errorf("eval trials %d out of range [1, %d] (0 means the default %d)",
				r.Trials, maxEvalTrials, DefaultEvalTrials)
	}
	if r.Fluct < 0 || r.Fluct > maxEvalFluct {
		return http.StatusBadRequest,
			fmt.Errorf("eval fluct %d out of range [0, %d]", r.Fluct, maxEvalFluct)
	}
	if r.Backend == "gort" {
		// The goroutine runtime burns real CPU per trial and has no
		// fluctuation model to seed — its noise is physical.
		if r.Trials > maxGortEvalTrials {
			return http.StatusBadRequest,
				fmt.Errorf("eval trials %d over the gort backend cap %d", r.Trials, maxGortEvalTrials)
		}
		if r.Fluct != 0 {
			return http.StatusBadRequest,
				fmt.Errorf("eval fluct is a sim-backend parameter; omit it with backend gort")
		}
	}
	return http.StatusOK, nil
}

// params resolves the tune request's defaulted parameters. Callers must
// have validated the objective via checkTuneRequest first.
func (r *TuneRequest) params() (Objective, int, float64) {
	obj, _ := ParseObjective(r.Objective)
	n := r.Iterations
	if n == 0 {
		n = 100
	}
	eps := 0.05
	if r.Epsilon != nil {
		eps = *r.Epsilon
	}
	return obj, n, eps
}

// TunePointResult is one grid cell of a TuneResponse. Rate is always the
// scheduled (static) rate; Measured carries the trial spread when the
// tune ran under a measured evaluator.
type TunePointResult struct {
	Processors int            `json:"processors"`
	CommCost   int            `json:"comm_cost"`
	Grain      int            `json:"grain,omitempty"`
	Rate       float64        `json:"rate_cycles_per_iteration,omitempty"`
	Procs      int            `json:"procs,omitempty"`
	CacheHit   bool           `json:"cache_hit,omitempty"`
	Measured   *MeasuredStats `json:"measured,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// TuneResponse is the POST /v1/tune reply.
type TuneResponse struct {
	Loop      string          `json:"loop"`
	Nodes     int             `json:"nodes"`
	GraphHash string          `json:"graph_hash"`
	Objective string          `json:"objective"`
	Evaluator string          `json:"evaluator"`
	Backend   string          `json:"backend,omitempty"`
	Best      TunePointResult `json:"best"`
	Score     float64         `json:"score"`
	Evaluated int             `json:"evaluated"`
	// SerialFallback reports the tune short-circuited below the request's
	// serial_threshold: Best is the one-processor sequential plan and the
	// grid was never swept.
	SerialFallback bool              `json:"serial_fallback,omitempty"`
	Results        []TunePointResult `json:"results"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// Route is one registered endpoint, as "METHOD /path".
type Route struct {
	Method string
	Path   string
}

// Server exposes a Pipeline over HTTP:
//
//	POST   /v1/schedule             schedule loop source, returning the JSON plan
//	POST   /v1/batch                schedule many loops, per-item error isolation
//	POST   /v1/tune                 auto-tune (processors, k) over a grid
//	GET    /v1/plans/{fingerprint}  list the stored plans for one graph
//	DELETE /v1/plans/{fingerprint}  drop the stored plans for one graph
//	GET    /v1/stats                store and hit-rate statistics
//	GET    /healthz                 liveness probe
type Server struct {
	pipe   *Pipeline
	mux    *http.ServeMux
	routes []Route
	// sem bounds concurrent schedule computations: the per-request caps
	// bound individual cost, this bounds aggregate cost — N distinct
	// near-cap requests must not each hold an in-flight plan at once. A
	// batch or tune holds one slot for its whole (internally bounded)
	// computation.
	sem chan struct{}
	// cluster, when non-nil, makes this server one node of a loopsched
	// cluster (see cluster.go): schedule requests for keys owned by a
	// peer are forwarded there instead of computed here, and peer-fill
	// record fetches are answered only for owned keys.
	cluster ScheduleForwarder
	// calib, when non-nil, supplies the live fitted cost model that
	// csim evaluations are scaled by (see calib.go).
	calib Calibration
	// streamThreshold is the embedded-schedule size above which a reply
	// streams (envelope prefix, memoized schedule bytes, suffix — chunked)
	// instead of buffering the whole body; streamed / streamBytes count
	// those replies for /v1/stats.
	streamThreshold int
	streamed        atomic.Uint64
	streamBytes     atomic.Uint64
}

// ServerConfig tunes the serving layer; the zero value is the default
// configuration NewServer applies.
type ServerConfig struct {
	// ComputeSlots bounds concurrent schedule/batch/tune computations
	// (the admission semaphore ahead of every compute section). Values
	// <= 0 mean 4 × GOMAXPROCS: enough concurrency for cache misses to
	// saturate the cores — scheduling is CPU-bound, so slots beyond a
	// small multiple of the processor count only add queue memory — while
	// cache hits never block on it for long (the fast lane holds a slot
	// only for a store lookup and a memoized-body fetch).
	ComputeSlots int
	// Cluster, when non-nil, runs the server as one node of a cluster:
	// the forwarder decides plan-key ownership under the consistent-hash
	// ring and proxies non-owned schedule requests to their owner. The
	// standard implementation is a store.PeerStore, which should also be
	// slotted into the pipeline's TieredStore as the peer-fill tier.
	Cluster ScheduleForwarder
	// Calibration, when non-nil, supplies the fitted cost model behind
	// `eval.backend=csim` and the "calib" block of /v1/stats. The
	// standard implementation is a calib.Manager, usually persisting
	// its profile in the disk plan store's directory and refreshed by
	// `loopsched serve -calibrate-every`.
	Calibration Calibration
	// StreamThreshold is the embedded-schedule byte size above which a
	// /v1/schedule reply is streamed to the socket (chunked transfer)
	// instead of rendered into one heap buffer. Values <= 0 mean 1 MiB —
	// aligned with maxPooledRespBuf, so every reply too large to recycle
	// its encode buffer streams instead of allocating and discarding one.
	StreamThreshold int
}

// slots resolves the admission bound.
func (c ServerConfig) slots() int {
	if c.ComputeSlots > 0 {
		return c.ComputeSlots
	}
	return 4 * runtime.GOMAXPROCS(0)
}

// streamLimit resolves the streaming threshold.
func (c ServerConfig) streamLimit() int {
	if c.StreamThreshold > 0 {
		return c.StreamThreshold
	}
	return maxPooledRespBuf
}

// NewServer wraps p in an http.Handler with the default configuration.
func NewServer(p *Pipeline) *Server { return NewServerWith(p, ServerConfig{}) }

// NewServerWith wraps p in an http.Handler configured by cfg.
func NewServerWith(p *Pipeline, cfg ServerConfig) *Server {
	s := &Server{
		pipe:            p,
		mux:             http.NewServeMux(),
		sem:             make(chan struct{}, cfg.slots()),
		cluster:         cfg.Cluster,
		calib:           cfg.Calibration,
		streamThreshold: cfg.streamLimit(),
	}
	for _, rt := range []struct {
		method, path string
		handler      http.HandlerFunc
	}{
		{http.MethodPost, "/v1/schedule", s.handleSchedule},
		{http.MethodPost, "/v1/batch", s.handleBatch},
		{http.MethodPost, "/v1/tune", s.handleTune},
		{http.MethodGet, "/v1/stats", s.handleStats},
		{http.MethodGet, "/healthz", s.handleHealthz},
	} {
		s.routes = append(s.routes, Route{Method: rt.method, Path: rt.path})
		s.mux.HandleFunc(rt.path, rt.handler)
	}
	// The plan routes carry a path parameter and differ by method, so
	// they register with method patterns (the mux then answers a stray
	// method on the path with its own 405).
	for _, rt := range []struct {
		method  string
		handler http.HandlerFunc
	}{
		{http.MethodGet, s.handlePlansGet},
		{http.MethodDelete, s.handlePlansDelete},
	} {
		s.routes = append(s.routes, Route{Method: rt.method, Path: "/v1/plans/{fingerprint}"})
		s.mux.HandleFunc(rt.method+" /v1/plans/{fingerprint}", rt.handler)
	}
	return s
}

// ComputeSlots reports the admission bound the server runs with.
func (s *Server) ComputeSlots() int { return cap(s.sem) }

// Routes returns every registered endpoint. docs/API.md must document
// each one; TestAPIDocCoversRoutes enforces the correspondence.
func (s *Server) Routes() []Route {
	out := make([]Route, len(s.routes))
	copy(out, s.routes)
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// readPost enforces the method and body cap shared by the POST
// endpoints. It reports ok = false after writing the error reply.
func readPost(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST " + r.URL.Path})
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return nil, false
	}
	if len(body) > maxRequestBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{"request body over 1 MiB"})
		return nil, false
	}
	return body, true
}

// admit blocks until a computation slot is free, honoring client
// cancellation while queued. It reports false when the client went away.
func (s *Server) admit(r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	body, ok := readPost(w, r)
	if !ok {
		return
	}
	req, err := parseScheduleRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if status, err := req.check(); err != nil {
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	var sim *MeasuredEvaluator
	if r.URL.RawQuery != "" {
		// Only parse the query when one is present: the steady-state
		// cache-hit request has none, and ParseQuery allocates even for
		// the empty string.
		sim, err = parseSimulateQuery(r.URL.Query())
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
			return
		}
		if sim != nil {
			s.calibrate(sim)
		}
	}
	// Admission: compile, schedule, and marshal under the in-flight
	// bound. The slot is released before the (possibly large, possibly
	// slow) response write so a stalled reader cannot starve scheduling.
	// A forwarded request (sent by a non-owner peer) is always computed
	// locally — never forwarded again — so intra-cluster chains are
	// bounded to one hop.
	if !s.admit(r) {
		return
	}
	forwarded := r.Header.Get(ForwardedHeader) != ""
	rep, status, err := s.scheduleResponse(req, body, sim, forwarded)
	<-s.sem
	switch {
	case err != nil:
		writeJSON(w, status, errorResponse{err.Error()})
	case rep.raw != nil:
		// The fast lane (and the cluster proxy): pre-rendered wire bytes
		// — a memoized cache-hit body, or the owner's reply verbatim —
		// served without re-encoding anything.
		writeRawJSON(w, status, rep.raw)
	case rep.stream != nil:
		// The streaming lane: a reply whose embedded schedule is over the
		// threshold never materializes as one buffer — the envelope prefix
		// goes out first, then the memoized schedule bytes, then the
		// closing suffix.
		s.writeStreamed(w, status, rep.stream)
	default:
		writeJSON(w, http.StatusOK, rep.resp)
	}
}

// parseSimulateQuery reads the ?simulate=1 parameters of /v1/schedule:
// simulate turns measured evaluation of the served plan on, and trials
// (default 1, capped like a tune's eval block), backend (sim, gort or csim),
// objective (mean/worst/p95), fluct and seed shape it. nil means no
// simulation was requested.
func parseSimulateQuery(q url.Values) (*MeasuredEvaluator, error) {
	switch q.Get("simulate") {
	case "", "0", "false":
		return nil, nil
	case "1", "true":
	default:
		return nil, fmt.Errorf("simulate=%q (want 1 or 0)", q.Get("simulate"))
	}
	// The probe is an EvalRequest so the tune eval block's validator
	// enforces the caps — one validator, one set of error messages.
	req := EvalRequest{
		Mode:      "measured",
		Backend:   q.Get("backend"),
		Objective: q.Get("objective"),
	}
	for name, dst := range map[string]*int{"trials": &req.Trials, "fluct": &req.Fluct} {
		if s := q.Get(name); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("%s=%q is not an integer", name, s)
			}
			*dst = v
		}
	}
	if s := q.Get("seed"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed=%q is not an integer", s)
		}
		req.Seed = seed
	}
	if req.Trials == 0 {
		req.Trials = 1 // a probe defaults to a single trial, not the tune default
	}
	if _, err := checkEvalRequest(&req); err != nil {
		return nil, err
	}
	// Transient: a simulate probe reports its measurement but never
	// annotates the plan or rewrites stored records — the reply is the
	// only place the numbers land.
	ev := req.measuredEvaluator()
	ev.Transient = true
	return ev, nil
}

// scheduleReply is the outcome of a schedule request's compute section.
// Exactly one field is set on success: pre-rendered wire bytes when the
// request rode the cache-hit fast lane or was proxied to its cluster
// owner, a split streamed reply when the embedded schedule is over the
// streaming threshold, a response value to encode otherwise.
type scheduleReply struct {
	raw    []byte
	stream *streamedReply
	resp   *ScheduleResponse
}

// scheduleResponse runs the compute section of a schedule request; on
// failure it returns the HTTP status to report.
func (s *Server) scheduleResponse(req *ScheduleRequest, rawBody []byte, sim *MeasuredEvaluator, forwarded bool) (scheduleReply, int, error) {
	compiled, err := s.pipe.Compile(req.Source)
	if err != nil {
		return scheduleReply{}, http.StatusUnprocessableEntity, err
	}
	opts, n := req.params()
	if err := checkGraphCaps(compiled.Graph.N(), n); err != nil {
		return scheduleReply{}, http.StatusRequestEntityTooLarge, err
	}

	// Cluster routing: a request for a key owned by a peer is served
	// from the local store when possible (the peer-fill tier makes that
	// one record fetch away), and forwarded to the owner otherwise, so
	// the owner's singleflight collapses cold misses fleet-wide.
	// Forwarded requests, simulate probes, and requests this node owns
	// all take the normal local path below; a failed forward degrades to
	// local computation — the cluster never refuses a request a single
	// node could have answered.
	if cl := s.cluster; cl != nil && sim == nil && !forwarded {
		key := PlanKey(compiled.Graph.Fingerprint(), opts, n)
		if !cl.Owns(key) {
			if plan, ok := s.pipe.Lookup(key); ok {
				return s.hitReply(plan, compiled.Loop.Name)
			}
			if status, body, ok := cl.Forward(key, rawBody); ok {
				// The owner's reply verbatim — including deterministic
				// owner-side errors (409 no-pattern, 422), which would
				// reproduce identically here.
				return scheduleReply{raw: body}, status, nil
			}
		}
	}

	plan, hit, err := s.pipe.Schedule(compiled.Graph, opts, n)
	if err != nil {
		if errors.Is(err, core.ErrNoPattern) {
			return scheduleReply{}, http.StatusConflict, err
		}
		return scheduleReply{}, http.StatusUnprocessableEntity, err
	}

	if hit && sim == nil {
		return s.hitReply(plan, compiled.Loop.Name)
	}

	var measured *MeasuredStats
	if sim != nil {
		score, err := s.pipe.Evaluate(sim, plan)
		if err != nil {
			return scheduleReply{}, http.StatusUnprocessableEntity, err
		}
		measured = score.Measured
	}

	resp, err := buildScheduleResponse(plan, compiled.Loop.Name, hit, measured)
	if err != nil {
		return scheduleReply{}, http.StatusInternalServerError, err
	}
	if st, ok, err := s.streamScheduleResponse(resp); err != nil {
		return scheduleReply{}, http.StatusInternalServerError, err
	} else if ok {
		return scheduleReply{stream: st}, http.StatusOK, nil
	}
	return scheduleReply{resp: resp}, http.StatusOK, nil
}

// hitReply serves a cache hit. Small plans go through the memoized
// pre-rendered hit body; plans whose schedule bytes are over the
// streaming threshold split for streaming instead — rendering (and
// memoizing) a multi-MB hit body would pin exactly the allocation the
// streaming path exists to avoid.
func (s *Server) hitReply(plan *Plan, loop string) (scheduleReply, int, error) {
	sched, err := plan.ScheduleJSON()
	if err != nil {
		return scheduleReply{}, http.StatusInternalServerError, err
	}
	if len(sched) > s.streamThreshold {
		resp, err := buildScheduleResponse(plan, loop, true, nil)
		if err != nil {
			return scheduleReply{}, http.StatusInternalServerError, err
		}
		st, _, err := s.streamScheduleResponse(resp)
		if err != nil {
			return scheduleReply{}, http.StatusInternalServerError, err
		}
		return scheduleReply{stream: st}, http.StatusOK, nil
	}
	body, err := renderHitBody(plan, loop)
	if err != nil {
		return scheduleReply{}, http.StatusInternalServerError, err
	}
	return scheduleReply{raw: body}, http.StatusOK, nil
}

// streamedReply is a schedule response split for streaming: the JSON
// envelope up to (and including) the `"schedule":` key, the memoized
// schedule bytes, and the closing `}` plus newline. Concatenated, the
// three parts are byte-identical to the buffered rendering — the
// schedule bytes are already compact JSON with nothing the encoder
// would re-escape (TestStreamedReplyByteIdentical pins this).
type streamedReply struct {
	prefix []byte
	sched  []byte
	suffix []byte
}

// streamedSuffix closes a streamed schedule reply: Schedule is the last
// envelope field, so after the raw schedule bytes only the object brace
// and writeJSON's newline framing remain.
var streamedSuffix = []byte("}\n")

// streamScheduleResponse splits resp for streaming when its embedded
// schedule exceeds the server's threshold. The split marshals the
// envelope with a nil schedule — yielding `…,"schedule":null}` — and
// strips the trailing `null}`, leaving everything up to the value
// position; the memoized schedule bytes then flow to the socket via
// io.Copy without ever joining the envelope in one buffer.
func (s *Server) streamScheduleResponse(resp *ScheduleResponse) (*streamedReply, bool, error) {
	if len(resp.Schedule) <= s.streamThreshold {
		return nil, false, nil
	}
	env := *resp
	sched := env.Schedule
	env.Schedule = nil
	data, err := json.Marshal(&env)
	if err != nil {
		return nil, false, err
	}
	tail := []byte("null}")
	if !bytes.HasSuffix(data, tail) {
		// Unreachable while Schedule stays the final, non-omitempty field
		// of ScheduleResponse; fail closed rather than emit a torn body.
		return nil, false, fmt.Errorf("schedule envelope does not end in %q", tail)
	}
	return &streamedReply{
		prefix: data[:len(data)-len(tail)],
		sched:  sched,
		suffix: streamedSuffix,
	}, true, nil
}

// writeStreamed writes a split schedule reply without ever buffering the
// whole body: the envelope prefix goes out and is flushed (first byte on
// the wire before any schedule copying starts), then the memoized
// schedule bytes, then the closing suffix. No Content-Length is set, so
// HTTP/1.1 replies go out chunked. The streamed / stream_bytes counters
// feed /v1/stats.
func (s *Server) writeStreamed(w http.ResponseWriter, status int, st *streamedReply) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	total, err := w.Write(st.prefix)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	if err == nil {
		// bytes.Reader implements WriterTo, so io.Copy hands the schedule
		// slice to the socket in one Write — no intermediate copy window.
		n, cerr := io.Copy(w, bytes.NewReader(st.sched))
		total += int(n)
		err = cerr
	}
	if err == nil {
		n, _ := w.Write(st.suffix)
		total += n
	}
	s.streamed.Add(1)
	s.streamBytes.Add(uint64(total))
}

// renderHitBody returns the plan's memoized cache-hit wire bytes. The
// fast lane: every field of the hit response is a pure function of
// (plan, loop name), so the wire bytes are memoized on the plan itself
// — rendered on the first hit, invalidated when a measured annotation
// lands, byte-identical across repeat hits. ScheduleJSON was already
// memoized; this extends the idea to the whole envelope, fixing the
// latent double-encode where the embedded raw schedule was re-compacted
// through the outer marshal on every hit.
func renderHitBody(plan *Plan, loop string) ([]byte, error) {
	return plan.HitResponseBody(loop, func() ([]byte, error) {
		resp, err := buildScheduleResponse(plan, loop, true, nil)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		// writeJSON's encoder terminates bodies with a newline; the
		// pre-rendered body matches so hits and misses differ only in
		// content, never framing.
		return append(body, '\n'), nil
	})
}

// buildScheduleResponse assembles the /v1/schedule reply for a plan. The
// fast lane and the dynamic path both come through here, so the two can
// never drift apart field-wise.
func buildScheduleResponse(plan *Plan, loop string, hit bool, measured *MeasuredStats) (*ScheduleResponse, error) {
	sched, err := plan.ScheduleJSON()
	if err != nil {
		return nil, err
	}
	return &ScheduleResponse{
		Loop:           loop,
		Nodes:          plan.Schedule.Graph.N(),
		GraphHash:      plan.GraphHash,
		Iterations:     plan.Iterations,
		Rate:           plan.Rate(),
		Makespan:       plan.Makespan(),
		CyclicProcs:    plan.Schedule.CyclicProcs,
		FlowInProcs:    plan.Schedule.FlowInProcs,
		FlowOutProcs:   plan.Schedule.FlowOutProcs,
		Folded:         plan.Schedule.Folded,
		GreedyFallback: plan.Schedule.GreedyFallback,
		CacheHit:       hit,
		Simulated:      measured,
		MeasuredBy:     plan.MeasuredAll(),
		Schedule:       sched,
		// The pattern summary is denormalized onto the plan so plans
		// loaded from a durable store serve the same block.
		Pattern: plan.Pattern(),
	}, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readPost(w, r)
	if !ok {
		return
	}
	var req BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	switch {
	case len(req.Items) == 0:
		writeJSON(w, http.StatusBadRequest, errorResponse{"empty batch: want \"items\""})
		return
	case len(req.Items) > maxBatchItems:
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{fmt.Sprintf("batch has %d items, over the serving cap %d", len(req.Items), maxBatchItems)})
		return
	}
	if !s.admit(r) {
		return
	}
	resp := s.batchResponse(&req)
	<-s.sem
	writeJSON(w, http.StatusOK, resp)
}

// batchResponse validates, compiles and schedules every batch item with
// per-item error isolation: whatever goes wrong with one item lands in
// its own result slot and never affects the others.
func (s *Server) batchResponse(req *BatchRequest) *BatchResponse {
	resp := &BatchResponse{
		Count:   len(req.Items),
		Results: make([]BatchItemResult, len(req.Items)),
	}
	var items []BatchItem
	var idx []int // items[j] corresponds to Results[idx[j]]
	for i := range req.Items {
		it := &req.Items[i]
		out := &resp.Results[i]
		out.Index = i
		if strings.TrimSpace(it.Source) == "" {
			out.Error = "missing \"source\""
			continue
		}
		if _, err := it.check(); err != nil {
			out.Error = err.Error()
			continue
		}
		opts, n := it.params()
		compiled, err := s.pipe.Compile(it.Source)
		if err != nil {
			out.Error = err.Error()
			continue
		}
		if err := checkGraphCaps(compiled.Graph.N(), n); err != nil {
			out.Error = err.Error()
			continue
		}
		out.Loop = compiled.Loop.Name
		out.Nodes = compiled.Graph.N()
		out.Iterations = n
		items = append(items, BatchItem{Graph: compiled.Graph, Opts: opts, Iterations: n})
		idx = append(idx, i)
	}
	for j, br := range s.pipe.Batch(items, BatchOptions{Workers: aggregateWorkers}) {
		out := &resp.Results[idx[j]]
		if br.Err != nil {
			out.Error = br.Err.Error()
			continue
		}
		// Summaries are scored through the evaluator abstraction like
		// every other consumer of plan goodness (static here: batch
		// replies stay cheap, and static scoring cannot fail), so
		// Stats.Evals sees batch traffic too.
		score, _ := s.pipe.Evaluate(nil, br.Plan)
		out.GraphHash = br.Plan.GraphHash
		out.Rate = score.Rate
		out.Makespan = br.Plan.Makespan()
		out.Procs = score.Procs
		out.CacheHit = br.CacheHit
	}
	for i := range resp.Results {
		if resp.Results[i].Error == "" {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	return resp
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	body, ok := readPost(w, r)
	if !ok {
		return
	}
	var req TuneRequest
	if err := decodeStrict(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if status, err := checkTuneRequest(&req); err != nil {
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	if !s.admit(r) {
		return
	}
	resp, status, err := s.tuneResponse(&req)
	<-s.sem
	if err != nil {
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkTuneRequest validates a tune request against the serving caps
// before any compilation or scheduling work.
func checkTuneRequest(req *TuneRequest) (int, error) {
	if strings.TrimSpace(req.Source) == "" {
		return http.StatusBadRequest, errors.New("missing \"source\"")
	}
	if _, err := ParseObjective(req.Objective); err != nil {
		return http.StatusBadRequest, err
	}
	if req.Epsilon != nil && (*req.Epsilon < 0 || *req.Epsilon > 1) {
		return http.StatusBadRequest, fmt.Errorf("epsilon %v out of range [0, 1]", *req.Epsilon)
	}
	if req.SerialThreshold < 0 {
		return http.StatusBadRequest,
			fmt.Errorf("serial_threshold %d is negative", req.SerialThreshold)
	}
	_, n, _ := req.params()
	if status, err := checkScheduleParams(n, req.Processors, req.CommCosts, req.Grains); err != nil {
		return status, err
	}
	if status, err := checkEvalRequest(req.Eval); err != nil {
		return status, err
	}
	// The grid is sized as AutoTune will actually run it: an empty axis
	// takes its default length (at most 8 processor values, 4 comm
	// costs, 1 grain), so an explicit list on one axis cannot smuggle
	// an over-cap grid past a 0-length other axis.
	pl, kl, gl := len(req.Processors), len(req.CommCosts), len(req.Grains)
	if pl == 0 {
		pl = 8
	}
	if kl == 0 {
		kl = 4
	}
	if gl == 0 {
		gl = 1
	}
	if pl*kl*gl > maxTunePoints {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("tuning grid has %d points, over the serving cap %d", pl*kl*gl, maxTunePoints)
	}
	// The trial budget counts against the same grid sizing: points ×
	// trials bounds the total execution-backend runs a tune can demand.
	// The gort budget is far tighter than the simulator's — each cell is
	// a real goroutine execution on the serving host.
	cells := pl * kl * gl * req.Eval.trials()
	if req.Eval != nil && req.Eval.Backend == "gort" {
		if cells > maxGortTuneTrialCells {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("tune costs %d goroutine-runtime trials (points x trials), over the serving cap %d",
					cells, maxGortTuneTrialCells)
		}
	} else if cells > maxTuneTrialCells {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("tune costs %d simulation trials (points x trials), over the serving cap %d",
				cells, maxTuneTrialCells)
	}
	return checkSource(req.Source)
}

// calibrate substitutes the server's live fitted cost model into a
// measured evaluator that requested the csim backend without bringing a
// model of its own. With no Calibration configured (or none fitted yet)
// the evaluator keeps its zero model and csim degrades to raw sim — the
// request still succeeds, it just isn't scaled.
func (s *Server) calibrate(ev *MeasuredEvaluator) {
	if s.calib == nil {
		return
	}
	if cb, ok := ev.Backend.(exec.Calibrated); ok && cb.Model.IsZero() {
		if m, ok := s.calib.Model(); ok {
			ev.Backend = exec.Calibrated{Model: m}
		}
	}
}

// calibrated applies calibrate when the evaluator is measured; static
// evaluators pass through untouched.
func (s *Server) calibrated(ev Evaluator) Evaluator {
	if me, ok := ev.(*MeasuredEvaluator); ok {
		s.calibrate(me)
	}
	return ev
}

// tuneResponse runs the compute section of a tune request.
func (s *Server) tuneResponse(req *TuneRequest) (*TuneResponse, int, error) {
	compiled, err := s.pipe.Compile(req.Source)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	objective, n, eps := req.params()
	if err := checkGraphCaps(compiled.Graph.N(), n); err != nil {
		return nil, http.StatusRequestEntityTooLarge, err
	}
	tuned, err := s.pipe.AutoTune(compiled.Graph, n, TuneOptions{
		Processors:      req.Processors,
		CommCosts:       req.CommCosts,
		Grains:          req.Grains,
		SerialThreshold: req.SerialThreshold,
		Base:            core.Options{FoldNonCyclic: req.Fold},
		Objective:       objective,
		Epsilon:         eps,
		Workers:         aggregateWorkers,
		Evaluator:       s.calibrated(req.Eval.evaluator()),
	})
	if err != nil {
		if errors.Is(err, core.ErrNoPattern) {
			return nil, http.StatusConflict, err
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	resp := &TuneResponse{
		Loop:           compiled.Loop.Name,
		Nodes:          compiled.Graph.N(),
		GraphHash:      tuned.Best.Plan.GraphHash,
		Objective:      tuned.Objective.String(),
		Evaluator:      tuned.Evaluator,
		Backend:        tuned.Backend,
		Best:           tunePoint(tuned.Best),
		Score:          tuned.Score,
		Evaluated:      tuned.Evaluated,
		SerialFallback: tuned.SerialFallback,
		Results:        make([]TunePointResult, len(tuned.Results)),
	}
	for i, tr := range tuned.Results {
		resp.Results[i] = tunePoint(tr)
	}
	return resp, http.StatusOK, nil
}

// tunePoint converts one sweep result to its wire form.
func tunePoint(r Result) TunePointResult {
	out := TunePointResult{
		Processors: r.Point.Processors,
		CommCost:   r.Point.CommCost,
		Grain:      r.Point.Grain,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	out.Rate = r.Rate
	out.Procs = r.Procs
	out.CacheHit = r.CacheHit
	out.Measured = r.Score.Measured
	return out
}

// parseScheduleRequest accepts either the JSON envelope or raw loop
// source (anything not starting with '{').
func parseScheduleRequest(body []byte) (*ScheduleRequest, error) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return nil, errors.New("empty request body")
	}
	if trimmed[0] != '{' {
		return &ScheduleRequest{Source: string(trimmed)}, nil
	}
	var req ScheduleRequest
	if err := decodeStrict(trimmed, &req); err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, errors.New("missing \"source\"")
	}
	return &req, nil
}

// decodeStrict unmarshals JSON rejecting unknown fields and trailing
// content, so client typos fail loudly instead of being ignored. It
// reads body in place — no copies on the near-cap hot path.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return errors.New("trailing content after the request object")
	}
	return nil
}

// PlansResponse is the GET /v1/plans/{fingerprint} reply.
type PlansResponse struct {
	GraphHash string     `json:"graph_hash"`
	Count     int        `json:"count"`
	Plans     []PlanInfo `json:"plans"`
}

// PlansDeleteResponse is the DELETE /v1/plans/{fingerprint} reply.
type PlansDeleteResponse struct {
	GraphHash string `json:"graph_hash"`
	Deleted   int    `json:"deleted"`
}

// checkFingerprint validates the path parameter: graph fingerprints are
// lowercase hex SHA-256 (see graph.Fingerprint), so anything else can be
// rejected before touching the store.
func checkFingerprint(fp string) error {
	if len(fp) != 64 {
		return fmt.Errorf("fingerprint %q is not a 64-character sha256 hex digest", fp)
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("fingerprint %q is not lowercase hex", fp)
		}
	}
	return nil
}

// storedPlans lists the store's plans for one graph fingerprint. The
// boolean reports whether the store supports enumeration at all.
func (s *Server) storedPlans(fp string) ([]PlanInfo, bool) {
	lister, ok := s.pipe.Store().(PlanLister)
	if !ok {
		return nil, false
	}
	var out []PlanInfo
	for _, info := range lister.Plans() {
		if info.GraphHash == fp {
			out = append(out, info)
		}
	}
	return out, true
}

func (s *Server) handlePlansGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if err := checkFingerprint(fp); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if key := r.URL.Query().Get("key"); key != "" {
		s.servePlanRecord(w, r, fp, key)
		return
	}
	plans, ok := s.storedPlans(fp)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorResponse{"the configured plan store cannot enumerate plans"})
		return
	}
	if len(plans) == 0 {
		writeJSON(w, http.StatusNotFound, errorResponse{"no stored plans for fingerprint " + fp})
		return
	}
	writeJSON(w, http.StatusOK, PlansResponse{GraphHash: fp, Count: len(plans), Plans: plans})
}

// servePlanRecord answers GET /v1/plans/{fingerprint}?key=... with the
// single stored plan under that full plan key, in the durable plan
// record format (the same bytes EncodePlan persists — DecodePlan
// re-validates key and graph content on the receiving side, so a
// corrupted or mismatched record can never poison a peer's cache).
// This is the peer-fill wire format of cluster mode, and works on any
// server regardless of cluster configuration.
func (s *Server) servePlanRecord(w http.ResponseWriter, r *http.Request, fp, key string) {
	if !strings.HasPrefix(key, fp) {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{"key does not start with the path fingerprint"})
		return
	}
	// A peer-originated fetch is answered only for keys this node owns:
	// the requester consulted its ring, so a non-owned key here means
	// the rings disagree, and answering (through this node's own peer
	// tier) could cascade fetches around the ring. Refusing bounds every
	// peer fetch to one hop.
	if r.Header.Get(PeerFetchHeader) != "" && s.cluster != nil && !s.cluster.Owns(key) {
		writeJSON(w, http.StatusNotFound, errorResponse{"this node does not own key " + key})
		return
	}
	// Stream the content-addressed record file straight to the socket
	// when the store can open it raw: no decode, no re-encode, no
	// record-sized buffer. The durable bytes are the wire format, so the
	// streamed reply matches the encode path byte for byte (plus the
	// newline framing both share); an exact Content-Length is known from
	// the file size, so this reply is never chunked. Any open failure
	// falls through to the decode-and-encode path below — a plan held
	// only in the memory tier is still served.
	if op, ok := s.pipe.Store().(RecordOpener); ok {
		if rc, size, err := op.OpenRecord(key); err == nil {
			defer rc.Close()
			h := w.Header()
			h["Content-Type"] = jsonContentType
			h["Content-Length"] = []string{strconv.FormatInt(size+1, 10)}
			w.WriteHeader(http.StatusOK)
			if n, err := io.Copy(w, rc); err == nil {
				_, _ = w.Write([]byte{'\n'})
				s.streamed.Add(1)
				s.streamBytes.Add(uint64(n) + 1)
			}
			return
		}
	}
	plan, ok := s.pipe.Store().Get(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"no stored plan for key " + key})
		return
	}
	rec, err := EncodePlan(plan)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	writeRawJSON(w, http.StatusOK, append(rec, '\n'))
}

func (s *Server) handlePlansDelete(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if err := checkFingerprint(fp); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	plans, ok := s.storedPlans(fp)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorResponse{"the configured plan store cannot enumerate plans"})
		return
	}
	if len(plans) == 0 {
		writeJSON(w, http.StatusNotFound, errorResponse{"no stored plans for fingerprint " + fp})
		return
	}
	st := s.pipe.Store()
	for _, info := range plans {
		st.Delete(info.Key)
	}
	writeJSON(w, http.StatusOK, PlansDeleteResponse{GraphHash: fp, Deleted: len(plans)})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET /v1/stats"})
		return
	}
	stats := s.pipe.Stats()
	var cluster *ClusterStats
	if s.cluster != nil {
		cs := s.cluster.ClusterStats()
		cluster = &cs
	}
	var calib *CalibStats
	if s.calib != nil {
		cs := s.calib.CalibStats()
		calib = &cs
	}
	writeJSON(w, http.StatusOK, struct {
		Stats
		HitRate float64 `json:"hit_rate"`
		// Streamed counts replies served through the streaming lane
		// (over-threshold schedules and raw record files), StreamBytes
		// their cumulative body bytes.
		Streamed    uint64        `json:"streamed"`
		StreamBytes uint64        `json:"stream_bytes"`
		Cluster     *ClusterStats `json:"cluster,omitempty"`
		Calib       *CalibStats   `json:"calib,omitempty"`
	}{stats, stats.HitRate(), s.streamed.Load(), s.streamBytes.Load(), cluster, calib})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// respBufPool recycles the encode buffers behind every dynamic JSON
// response. Encoding into a pooled buffer (instead of straight at the
// ResponseWriter) costs one copy to the socket but buys three things:
// steady-state responses reuse one grown buffer instead of re-growing
// per request, an encode error is caught before any status line is
// written, and the reply carries an exact Content-Length.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledRespBuf bounds what returns to the pool: a near-cap schedule
// reply runs to tens of MB, and parking buffers that size in the pool
// would pin the worst response ever served as permanent ballast.
const maxPooledRespBuf = 1 << 20

// writeJSON emits compact JSON: schedule replies embed up to hundreds of
// thousands of placements, and indentation would multiply their size.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Unreachable for the response types the handlers pass (all
		// marshal without error); keep the envelope contract anyway.
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(errorResponse{err.Error()})
	}
	writeRawJSON(w, status, buf.Bytes())
	if buf.Cap() <= maxPooledRespBuf {
		respBufPool.Put(buf)
	}
}

// jsonContentType is the shared Content-Type header value; assigning it
// directly (the keys are already canonical) spares the fast lane a
// per-request []string allocation and the MIME canonicalization walk.
var jsonContentType = []string{"application/json; charset=utf-8"}

// writeRawJSON writes pre-rendered response bytes (trailing newline
// included) without re-encoding — the cache-hit fast lane's exit. The
// explicit Content-Length keeps large replies out of chunked encoding.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
