// Command perfbench is the repository's benchmark. It drives the
// scheduling pipeline from outside, through the public functions of each
// module, on one of four workloads:
//
//	serve_hot   an in-process pipeline.Server, every popular key warm
//	serve_cold  the same server, mostly unseen loops and a small memory tier
//	execute     lowered programs on the goroutine runtime (mimdrt)
//	simulate    the same programs on the simulated machine (machine.Run)
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) runs the workload untraced and then traced, and reports the
// per-layer metrics with the tracing overhead. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
// Run it from the repository root through perfbench/run.py, which builds
// this package first; --workload all runs the four in turn:
//
//	python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0
//	python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mimdloop/internal/machine"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/pipeline"
)

// A run sets its system up at least minSetups times, and more (up to
// maxSetups) while the set-ups together took under setupFloor, so that a
// set-up of a millisecond is still measured over many repetitions; setup_s
// is the median.
const (
	minSetups  = 3
	maxSetups  = 200
	setupFloor = 500 * time.Millisecond
)

// config holds the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	work     string // scratch directory for stores and span files
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	defs              []metricDef
	report            []string // human-readable lines printed before the JSON
}

func (r *result) logf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// fail counts n failed operations, noting the first error.
func (r *result) fail(n int, err error) {
	r.failed += n
	if n > 0 && err != nil {
		r.logf("FAILED (%d): %v", n, err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "serve_hot, serve_cold, execute, simulate, or all")
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fl.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fl.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fl.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, for the report")
	fl.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// --workload all runs every workload in turn and ends with one JSON
	// object whose metrics are named <workload>/<metric>.
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	total := &result{correct: true, metrics: map[string]float64{}}
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := runWorkload(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, c, res)
		if len(names) == 1 {
			total = res
			break
		}
		total.attempted += res.attempted
		total.failed += res.failed
		total.correct = total.correct && res.correct
		for _, d := range res.defs {
			total.defs = append(total.defs, metricDef{name + "/" + d.name, d.unit})
			total.metrics[name+"/"+d.name] = res.metrics[d.name]
		}
	}
	// The serving workloads write and remove hundreds of megabytes of plan
	// records; flushing them before exit keeps that write-back out of the
	// next run's set-up.
	syscall.Sync()
	if err := printJSON(stdout, total); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// workloads lists every workload, in the order --workload all runs them.
var workloads = []string{"serve_hot", "serve_cold", "execute", "simulate"}

func runWorkload(cfg config) (*result, error) {
	switch cfg.workload {
	case "serve_hot":
		return serveHot(cfg)
	case "serve_cold":
		return serveCold(cfg)
	case "execute", "simulate":
		return runExec(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// printReport writes the environment, the run's report and every metric by
// name with its unit.
func printReport(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit, sourceDigest())
	for _, line := range res.report {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d error_rate=%.6g correct=%t\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), res.correct)
	for _, d := range res.defs {
		fmt.Fprintf(w, "metric %-32s %16.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
}

// printJSON writes the result line: correct, attempted, failed and every
// metric with its unit.
func printJSON(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.defs))
	for _, d := range res.defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct && res.failed == 0, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// sourceDigest hashes the Go sources and go.mod outside the benchmark's
// directory, identifying the measured program when no commit is known.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMiB forces collections and returns the heap in use. The second
// collection frees what sync.Pool victim caches kept through the first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// e2e fills the end-to-end metrics from a measured phase. tailQ is the
// workload's tail percentile: the highest with at least ten samples beyond
// it at the benchmark's run length.
func (r *result) e2e(st loopStats, busy time.Duration, tailQ float64, setups []float64, heap float64) {
	r.defs = endToEnd
	r.attempted += st.ops
	r.fail(st.failed, errors.New(strings.Join(st.errs, "; ")))
	counts, err := countMetrics()
	if err != nil {
		r.correct = false
		r.logf("DEFECT: %v", err)
	}
	ok := st.ops - st.failed
	r.metrics = map[string]float64{
		"ops_per_s":             ratio(float64(ok), busy.Seconds()),
		"p50_us":                quantile(st.lat, 0.5),
		"tail_us":               quantile(st.lat, tailQ),
		"setup_s":               median(setups),
		"alloc_bytes_per_op":    ratio(float64(st.allocBytes), float64(st.ops)),
		"live_heap_mb":          heap,
		"record_bytes_per_loop": counts.recordBytes,
		"plan_speedup":          counts.speedup,
	}
	r.logf("latency samples=%d tail=p%g setups=%v", len(st.lat), tailQ*100, setups)
	r.logf("count suite: placements/loop=%.6g instrs/loop=%.6g messages/loop=%.6g (two passes agree: %t)",
		counts.placements, counts.instrs, counts.messages, err == nil)
}

// overhead fills the tracing-overhead metrics: the traced phase's
// throughput shortfall and its extra median latency.
func (r *result) overhead(un, tr loopStats, unBusy, trBusy time.Duration) {
	unOps := ratio(float64(un.ops-un.failed), unBusy.Seconds())
	trOps := ratio(float64(tr.ops-tr.failed), trBusy.Seconds())
	r.metrics["trace.ops_overhead_ratio"] = 1 - ratio(trOps, unOps)
	r.metrics["trace.p50_overhead_us"] = median(tr.lat) - median(un.lat)
	r.logf("untraced ops/s=%.6g p50=%.6gus; traced ops/s=%.6g p50=%.6gus", unOps, median(un.lat), trOps, median(tr.lat))
}

// writeSpans writes the traced run's spans under the scratch directory.
func (r *result) writeSpans(cfg config, rec *recorder) {
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err := rec.writeFile(path); err != nil {
		r.logf("spans not written: %v", err)
		return
	}
	r.logf("spans=%d dropped=%d written to %s", len(rec.spans), rec.dropped.Load(), path)
}

// timedSetups runs setup repeatedly (see minSetups), tearing down all but
// the last, and returns the last system with every setup's wall time in
// seconds.
func timedSetups[T any](setup func() (T, error), teardown func(T) error) (T, []float64, error) {
	var times []float64
	var total time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return s, nil, err
		}
		d := time.Since(t0)
		times = append(times, secs(d))
		total += d
		if len(times) >= maxSetups || (len(times) >= minSetups && total >= setupFloor) {
			return s, times, nil
		}
		if err := teardown(s); err != nil {
			return s, nil, err
		}
	}
}

func serveHot(cfg config) (*result, error) {
	h, err := newHotSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	d := time.Duration(cfg.seconds) * time.Second
	res := &result{correct: true}
	closeHot := func(hs *hotServe) error { return hs.sys.close() }
	if !cfg.trace {
		hs, setups, err := timedSetups(func() (*hotServe, error) { return startHot(cfg.work, h, nil, clients) }, closeHot)
		if err != nil {
			return nil, err
		}
		st := runHot(hs, h, clients, d, nil)
		heap := liveHeapMiB()
		if err := hs.sys.close(); err != nil {
			return nil, err
		}
		res.logf("clients=%d keys=%d (+1 streamed) batches=%d", clients, hotKeys, hotBatches)
		res.e2e(st, st.wall, 0.99, setups, heap)
		return res, nil
	}

	// Traced run: the same fixed sequence through a plain and a traced
	// system must leave identical pipeline and store counters; then each
	// system serves half the run.
	plain, err := startHot(cfg.work, h, nil, clients)
	if err != nil {
		return nil, err
	}
	plainStats, err := seqHot(plain, h)
	if err != nil {
		plain.sys.close()
		return nil, err
	}
	un := runHot(plain, h, clients, d/2, nil)
	if err := plain.sys.close(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := startHot(cfg.work, h, rec, clients)
	if err != nil {
		return nil, err
	}
	tracedStats, err := seqHot(traced, h)
	if err != nil {
		traced.sys.close()
		return nil, err
	}
	res.faithful(plainStats, tracedStats)
	rec.reset()
	tr, before, after, streamed, err := tracedPhase(traced.sys, func() loopStats { return runHot(traced, h, clients, d/2, rec) })
	if cerr := traced.sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var sample []loopInput
	for r := 0; r < hotKeys; r += 8 {
		sample = append(sample, h.keys[r])
	}
	sample = append(sample, h.stream)
	return res, res.servingTrace(cfg, rec, un, tr, before, after, streamed, sample)
}

// seqHot sends the first 512 request slots from one client, in order, and
// returns the pipeline counters after them.
func seqHot(hs *hotServe, h *hotSet) (pipeline.Stats, error) {
	c := newClient()
	defer c.close()
	for i := 0; i < 512; i++ {
		route, body, _ := h.request(i)
		if err := c.post(hs.sys.url+route, body, ""); err != nil {
			return pipeline.Stats{}, err
		}
	}
	return hs.sys.pipe.Stats(), nil
}

// faithful records whether the traced system's counters after the fixed
// sequence equal the plain system's: the decorators must not change the
// path a request takes.
func (r *result) faithful(plain, traced pipeline.Stats) {
	if reflect.DeepEqual(plain, traced) {
		r.logf("decorators faithful: pipeline and store counters identical after the fixed sequence")
		return
	}
	r.correct = false
	r.logf("DECORATOR MISMATCH: plain %+v traced %+v", plain, traced)
}

// tracedPhase runs phase on sys and returns its stats with the pipeline
// counters and the streamed-reply count around it.
func tracedPhase(sys *servingSystem, phase func() loopStats) (st loopStats, before, after pipeline.Stats, streamed uint64, err error) {
	s0, err := sys.streamed()
	if err != nil {
		return
	}
	before = sys.pipe.Stats()
	st = phase()
	after = sys.pipe.Stats()
	s1, err := sys.streamed()
	return st, before, after, s1 - s0, err
}

// servingTrace fills the per-layer metrics of a traced serving run.
func (r *result) servingTrace(cfg config, rec *recorder, un, tr loopStats, before, after pipeline.Stats, streamed uint64, sample []loopInput) error {
	r.defs = perLayer
	r.metrics = make(map[string]float64)
	r.attempted += un.ops + tr.ops
	r.fail(un.failed+tr.failed, errors.New(strings.Join(append(un.errs, tr.errs...), "; ")))
	rec.quiesce()
	servingLayers(r.metrics, rec)
	storeLayers(r.metrics, before, after)
	r.metrics["server.streamed_ratio"] = ratio(float64(streamed), float64(tr.ops))
	r.overhead(un, tr, un.wall, tr.wall)
	rs, err := replay(rec, sample)
	if err != nil {
		return err
	}
	replayLayers(r.metrics, rec.aggregate(), rs)
	r.logf("replayed %d loops through the layer functions", rs.loops)
	r.writeSpans(cfg, rec)
	return nil
}

// coldSeq is how many serve_cold inputs the decorator check sends; the
// traced run's two phases start after them.
const coldSeq = 6

func serveCold(cfg config) (*result, error) {
	clients := runtime.NumCPU()
	d := time.Duration(cfg.seconds) * time.Second
	res := &result{correct: true}
	start := func(rec *recorder) func() (*servingSystem, error) {
		return func() (*servingSystem, error) { return startSystem(cfg.work, coldMemBytes, coldCompileEntries, rec) }
	}
	closeSys := func(s *servingSystem) error { return s.close() }
	if !cfg.trace {
		sys, setups, err := timedSetups(start(nil), closeSys)
		if err != nil {
			return nil, err
		}
		st := runCold(sys, cfg.seed, 0, clients, d, nil)
		res.logf("clients=%d memory tier=%d MiB samples checked=%d", clients, coldMemBytes>>20, len(st.samples))
		res.fail(checkCold(st.samples))
		st.samples = nil // checked; not part of the system's live heap
		heap := liveHeapMiB()
		if err := sys.close(); err != nil {
			return nil, err
		}
		res.e2e(st.loopStats, st.wall, 0.90, setups, heap)
		return res, nil
	}

	plain, err := startSystem(cfg.work, coldMemBytes, coldCompileEntries, nil)
	if err != nil {
		return nil, err
	}
	plainStats, err := seqCold(plain, cfg.seed)
	if err != nil {
		plain.close()
		return nil, err
	}
	un := runCold(plain, cfg.seed, coldSeq, clients, d/2, nil)
	if err := plain.close(); err != nil {
		return nil, err
	}
	res.fail(checkCold(un.samples))
	rec := newRecorder()
	traced, err := startSystem(cfg.work, coldMemBytes, coldCompileEntries, rec)
	if err != nil {
		return nil, err
	}
	tracedStats, err := seqCold(traced, cfg.seed)
	if err != nil {
		traced.close()
		return nil, err
	}
	res.faithful(plainStats, tracedStats)
	rec.reset()
	var tr coldRun
	trStats, before, after, streamed, err := tracedPhase(traced, func() loopStats {
		tr = runCold(traced, cfg.seed, coldSeq, clients, d/2, rec)
		return tr.loopStats
	})
	if cerr := traced.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.fail(checkCold(tr.samples))
	var sample []loopInput
	for i := coldSeq; len(sample) < coldSeq; i++ {
		if in, revisit := coldInput(cfg.seed, i); !revisit {
			sample = append(sample, in)
		}
	}
	return res, res.servingTrace(cfg, rec, un.loopStats, trStats, before, after, streamed, sample)
}

// seqCold sends the first coldSeq inputs from one client, in order, and
// returns the pipeline counters after them.
func seqCold(sys *servingSystem, seed int64) (pipeline.Stats, error) {
	c := newClient()
	defer c.close()
	for i := 0; i < coldSeq; i++ {
		in, _ := coldInput(seed, i)
		if err := c.post(sys.url+"/v1/schedule", in.body(), ""); err != nil {
			return pipeline.Stats{}, fmt.Errorf("%s: %w", in.Name, err)
		}
	}
	return sys.pipe.Stats(), nil
}

// runExec runs the execute (mimdrt) or simulate (machine.Run) workload
// with one caller running one plan at a time.
func runExec(cfg config) (*result, error) {
	gort := cfg.workload == "execute"
	inputs := execInputs(cfg.seed)
	d := time.Duration(cfg.seconds) * time.Second
	res := &result{correct: true}
	plans, setups, err := timedSetups(func() ([]*execPlan, error) { return buildExec(inputs, gort) },
		func(p []*execPlan) error { closeExec(p); return nil })
	if err != nil {
		return nil, err
	}
	defer closeExec(plans)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	if gort {
		for _, p := range plans {
			id := rec.begin("loopir.interpret", rec.newReq(), -1)
			p.want = p.c.Interpret(p.in.Iters)
			rec.end(id, true)
		}
	}
	// One op is a round: every plan run once, in order. A round's time is
	// the sum of its timed runs, so value checks stay outside it.
	messages := make([]float64, len(plans))
	phase := func(d time.Duration, rec *recorder) (loopStats, [][]float64, time.Duration) {
		lat := make([][]float64, len(plans))
		var busy time.Duration
		st := closedLoop(1, d, func(_, i int) (time.Duration, error) {
			var round time.Duration
			for j, p := range plans {
				var dur time.Duration
				var err error
				if gort {
					dur, err = p.runGort(rec, i%checkEvery == 0)
				} else {
					var ms *machine.Stats
					dur, ms, err = p.runSim(rec)
					if ms != nil {
						messages[j] = float64(ms.Messages) / float64(p.in.Iters)
					}
				}
				round += dur
				if err != nil {
					return round, err
				}
				lat[j] = append(lat[j], us(dur))
			}
			busy += round
			return round, nil
		})
		return st, lat, busy
	}
	// p90 rather than p99 even where a run has the samples for p99:
	// machine.Run allocates heavily, and the 1% of rounds a collection
	// lands in moved p99 by half from run to run.
	const tailQ = 0.90
	if !cfg.trace {
		st, lat, busy := phase(d, nil)
		heap := liveHeapMiB()
		res.reportPlans(plans, lat)
		res.e2e(st, busy, tailQ, setups, heap)
		return res, nil
	}

	un, _, unBusy := phase(d/2, nil)
	tr, lat, trBusy := phase(d/2, rec)
	res.defs = perLayer
	res.metrics = make(map[string]float64)
	res.attempted += un.ops + tr.ops
	res.fail(un.failed+tr.failed, errors.New(strings.Join(append(un.errs, tr.errs...), "; ")))
	res.overhead(un, tr, unBusy, trBusy)
	res.reportPlans(plans, lat)
	all := func(*execPlan) bool { return true }
	if gort {
		res.metrics["mimdrt.run_ns_per_iter"] = planNsPerIter(plans, lat, func(p *execPlan) bool { return p.in.Grain <= 1 })
		res.metrics["mimdrt.chunked_ns_per_iter"] = planNsPerIter(plans, lat, func(p *execPlan) bool { return p.in.Grain > 1 })
		var setupUs, seq []float64
		iters := 0
		for _, p := range plans {
			setupUs = append(setupUs, us(p.setup))
			c, n := p.c, p.in.Iters
			id := rec.begin("mimdrt.sequential", rec.newReq(), -1)
			t0 := time.Now()
			mimdrt.Sequential(c.Graph, c, n)
			dt := time.Since(t0)
			rec.end(id, true)
			seq = append(seq, float64(dt)/float64(n))
			iters += n
		}
		res.metrics["mimdrt.runner_setup_us"] = mean(setupUs)
		res.metrics["mimdrt.sequential_ns_per_iter"] = geomean(seq)
		if l := rec.aggregate()["loopir.interpret"]; l != nil {
			res.metrics["loopir.interpret_ns_per_iter"] = float64(l.total) / float64(iters)
		}
	} else {
		res.metrics["machine.run_ns_per_iter"] = planNsPerIter(plans, lat, all)
		res.metrics["machine.messages_per_iter"] = mean(messages)
	}
	res.writeSpans(cfg, rec)
	return res, nil
}

// reportPlans logs each plan's median op time per iteration.
func (r *result) reportPlans(plans []*execPlan, lat [][]float64) {
	for j, p := range plans {
		r.logf("plan %-10s nodes=%-3d n=%-5d p=%d grain=%d runs=%-5d median=%.6g ns/iter",
			p.in.Name, p.in.Nodes, p.in.Iters, p.in.Procs, p.in.Grain, len(lat[j]), median(lat[j])*1e3/float64(p.in.Iters))
	}
}
