package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mimdloop/internal/loopir"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
	"mimdloop/internal/store"
)

// servingSystem is one in-process pipeline.Server on loopback over a
// TieredStore(MemStore, DiskStore in a temporary directory).
type servingSystem struct {
	dir  string
	pipe *pipeline.Pipeline
	api  *pipeline.Server // the server without the tracing middleware
	srv  *http.Server
	url  string
	done chan struct{}
}

// startSystem starts a server whose memory tier holds at most memBytes of
// plans and whose compile cache holds at most compiled sources (0 for the
// pipeline's default). With rec set, the store tiers, the tiered store and
// the handler are wrapped in the tracing decorators.
func startSystem(tmpRoot string, memBytes int64, compiled int, rec *recorder) (*servingSystem, error) {
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	sys := &servingSystem{dir: dir, done: make(chan struct{})}
	fail := func(err error) (*servingSystem, error) {
		os.RemoveAll(dir)
		return nil, err
	}
	disk, err := store.Open(store.DiskConfig{Dir: dir, MaxBytes: 512 << 20})
	if err != nil {
		return fail(err)
	}
	var upper, lower pipeline.PlanStore = pipeline.NewMemStore(pipeline.MemConfig{MaxBytes: memBytes}), disk
	if rec != nil {
		if upper, err = traceStore(upper, rec, "store.mem"); err != nil {
			return fail(err)
		}
		if lower, err = traceStore(lower, rec, "store.disk"); err != nil {
			return fail(err)
		}
	}
	var top pipeline.PlanStore = store.NewTiered(upper, lower)
	if rec != nil {
		if top, err = traceStore(top, rec, "store"); err != nil {
			return fail(err)
		}
	}
	sys.pipe = pipeline.New(pipeline.Config{Store: top, MaxEntries: compiled})
	sys.api = pipeline.NewServer(sys.pipe)
	var h http.Handler = sys.api
	if rec != nil {
		h = middleware(rec, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.pipe.Close()
		return fail(err)
	}
	sys.url = "http://" + ln.Addr().String()
	sys.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(sys.done)
		sys.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return sys, nil
}

// close stops the server, waits for its serve loop to return, closes the
// store and removes its directory.
func (s *servingSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return errors.Join(err, s.pipe.Close(), os.RemoveAll(s.dir))
}

// streamed reads the server's streamed-reply counter from /v1/stats,
// calling the server directly so that the read adds no traffic or spans.
func (s *servingSystem) streamed() (uint64, error) {
	w := httptest.NewRecorder()
	s.api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		Streamed uint64 `json:"streamed"`
	}
	return st.Streamed, json.Unmarshal(w.Body.Bytes(), &st)
}

// client is one closed-loop caller holding one keep-alive connection.
type client struct {
	http *http.Client
	buf  bytes.Buffer // the last reply body
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body to url and reads the whole reply into c.buf. A reply
// other than 200 is an error.
func (c *client) post(url string, body []byte, traceHdr string) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceHdr != "" {
		req.Header.Set(traceHeader, traceHdr)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	return nil
}

// tracedPost is post inside an http.client span whose identity travels to
// the handler middleware in traceHeader.
func (c *client) tracedPost(rec *recorder, url string, body []byte) error {
	if rec == nil {
		return c.post(url, body, "")
	}
	req := rec.newReq()
	id := rec.begin("http.client", req, -1)
	err := c.post(url, body, strconv.FormatUint(req, 10)+" "+strconv.Itoa(int(id)))
	rec.end(id, err == nil)
	return err
}

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	ops, failed int
	wall        time.Duration
	lat         []float64 // microseconds, one per completed op
	errs        []string  // the first few failures
	allocBytes  uint64    // process TotalAlloc growth over the phase
}

func (s *loopStats) note(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

// closedLoop runs n callers for d: each takes the next sequence index,
// performs op and only then takes another. op returns the latency it
// measured; a failed op still counts as attempted.
func closedLoop(n int, d time.Duration, op func(caller, i int) (time.Duration, error)) loopStats {
	var next atomic.Int64
	var mu sync.Mutex
	var out loopStats
	var wg sync.WaitGroup
	before := totalAlloc()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			ops := 0
			var errs []error
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				l, err := op(c, i)
				ops++
				if err != nil {
					errs = append(errs, err)
					continue
				}
				lat = append(lat, us(l))
			}
			mu.Lock()
			out.ops += ops
			out.lat = append(out.lat, lat...)
			for _, err := range errs {
				out.note(err)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.allocBytes = totalAlloc() - before
	return out
}

// hotSet is the serve_hot input: the popular keys in Zipf rank order, the
// near-cap streamed key, the batch bodies, and the request sequence.
type hotSet struct {
	keys    []loopInput
	bodies  [][]byte
	stream  loopInput
	sBody   []byte
	batches [][]byte
	ranks   []uint16 // Zipf-drawn key ranks, cycled by sequence index
}

const (
	hotKeys     = 255 // popular keys on the hit-body lane; with the stream key, 256
	hotBatchLen = 6
	hotBatches  = 1024
	hotRanks    = 1 << 16
	// One request in 64 is the near-cap stream, so the 99th percentile
	// falls inside the streamed population rather than on its edge; one in
	// 8 is a batch.
	hotStreamEvery = 64
	hotBatchEvery  = 8
)

// newHotSet draws the serve_hot inputs for seed. Sizes are fixed by rank
// (every ninth rank is a paper loop at p ∈ {2,3,4} and n ∈ {25,50,100};
// the others are generated loops of 4–12 statements at 32–128
// iterations), so the seed changes the loops' dependences and the request
// order but not the reply-size mix.
func newHotSet(seed int64) (*hotSet, error) {
	h := &hotSet{}
	papers := paperLoops()
	paperNs := []int{25, 50, 100}
	for r := 0; r < hotKeys; r++ {
		var in loopInput
		if r%9 == 4 && r/9 < len(papers)*9 {
			k := r / 9
			p := papers[k%3]
			in = loopInput{Name: p.name, Source: p.source, Nodes: p.nodes, Procs: 2 + (k/3)%3, Iters: paperNs[k/9], Shape: "paper"}
		} else {
			rng := rand.New(rand.NewSource(splitmix(seed, uint64(r))))
			stmts := 4 + (r*7)%9
			name := fmt.Sprintf("hot%d", r)
			in = loopInput{Name: name, Source: randomLoop(rng, name, stmts), Nodes: stmts,
				Procs: 2 + r%3, Iters: []int{32, 64, 128}[r%3], Shape: "small"}
		}
		if err := in.checkCaps(); err != nil {
			return nil, err
		}
		h.keys = append(h.keys, in)
		h.bodies = append(h.bodies, in.body())
	}
	fig7 := papers[0]
	h.stream = loopInput{Name: fig7.name, Source: fig7.source, Nodes: fig7.nodes, Procs: 4, Iters: capIterations, Shape: "paper"}
	if err := h.stream.checkCaps(); err != nil {
		return nil, err
	}
	h.sBody = h.stream.body()

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, hotKeys-1)
	h.ranks = make([]uint16, hotRanks)
	for i := range h.ranks {
		h.ranks[i] = uint16(zipf.Uint64())
	}
	for b := 0; b < hotBatches; b++ {
		var req pipeline.BatchRequest
		for j := 0; j < hotBatchLen; j++ {
			req.Items = append(req.Items, h.keys[zipf.Uint64()].request())
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		h.batches = append(h.batches, body)
	}
	return h, nil
}

// request returns sequence slot i: its route, body and reference-reply
// slot (key rank, hotKeys for the stream key, or hotKeys+1+batch index).
func (h *hotSet) request(i int) (route string, body []byte, ref int) {
	switch {
	case i%hotStreamEvery == hotStreamEvery/2:
		return "/v1/schedule", h.sBody, hotKeys
	case i%hotBatchEvery == hotBatchEvery-1:
		b := (i / hotBatchEvery) % hotBatches
		return "/v1/batch", h.batches[b], hotKeys + 1 + b
	default:
		r := int(h.ranks[i%hotRanks])
		return "/v1/schedule", h.bodies[r], r
	}
}

// hotServe is a warmed serve_hot system with the first cache-hit reply of
// every request slot, which every later reply must equal byte for byte.
type hotServe struct {
	sys  *servingSystem
	refs [][]byte
}

// hotMemBytes sizes the memory tier so the whole popular set stays in it.
const hotMemBytes = 1 << 30

// startHot starts a server and warms every popular key, the stream key and
// every batch from clients parallel callers: each schedule key twice (a
// miss, then the first hit, whose reply becomes the reference), each batch
// once.
func startHot(tmpRoot string, h *hotSet, rec *recorder, clients int) (*hotServe, error) {
	sys, err := startSystem(tmpRoot, hotMemBytes, 0, rec)
	if err != nil {
		return nil, err
	}
	hs := &hotServe{sys: sys, refs: make([][]byte, hotKeys+1+hotBatches)}
	type job struct {
		ref, times int
		route      string
		body       []byte
	}
	var jobs []job
	for r, body := range h.bodies {
		jobs = append(jobs, job{r, 2, "/v1/schedule", body})
	}
	jobs = append(jobs, job{hotKeys, 2, "/v1/schedule", h.sBody})
	// Batches go last: their items must already be warm.
	warmKeys := len(jobs)
	for b, body := range h.batches {
		jobs = append(jobs, job{hotKeys + 1 + b, 1, "/v1/batch", body})
	}
	warm := func(jobs []job) error {
		var next atomic.Int64
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := newClient()
				defer c.close()
				for j := int(next.Add(1) - 1); j < len(jobs); j = int(next.Add(1) - 1) {
					for t := 0; t < jobs[j].times; t++ {
						if err := c.post(sys.url+jobs[j].route, jobs[j].body, ""); err != nil {
							errs[w] = fmt.Errorf("warm-up %s: %w", jobs[j].route, err)
							return
						}
					}
					hs.refs[jobs[j].ref] = bytes.Clone(c.buf.Bytes())
				}
			}(w)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	err = warm(jobs[:warmKeys])
	if err == nil {
		err = warm(jobs[warmKeys:])
	}
	if err == nil {
		// The popular set must fit the memory tier: an eviction here would
		// turn serve_hot into a disk workload.
		if ev := sys.pipe.Stats().Evictions; ev != 0 {
			err = fmt.Errorf("warm-up evicted %d plans from the memory tier", ev)
		}
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return hs, nil
}

// runHot drives the warmed system with nproc closed-loop clients for d.
// Every reply is compared with its slot's reference after its latency is
// taken.
func runHot(hs *hotServe, h *hotSet, clients int, d time.Duration, rec *recorder) loopStats {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient()
		defer cs[i].close()
	}
	return closedLoop(clients, d, func(caller, i int) (time.Duration, error) {
		c := cs[caller]
		route, body, ref := h.request(i)
		t0 := time.Now()
		err := c.tracedPost(rec, hs.sys.url+route, body)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		if !bytes.Equal(c.buf.Bytes(), hs.refs[ref]) {
			return lat, fmt.Errorf("request %d (%s): reply differs from the first reply for its key", i, route)
		}
		return lat, nil
	})
}

// coldMemBytes is serve_cold's small memory-tier budget. A long loop's
// plan (1.5–2 MiB by the store's estimate) never fits one of its 0.5 MiB
// shards and a wide one only at its fewest iterations, so most revisits
// fall through to disk. It also pins the live heap the store may hold: a
// 16 MiB tier let the heap after a run vary by a fifth with which plans,
// and which of their memoized replies, it happened to hold.
const coldMemBytes = 8 << 20

// coldCompileEntries bounds serve_cold's compile cache. A run sends
// hundreds of unseen sources, and the cache, not the memory tier, holds
// most of the live heap; bounded, it fills within the first seconds, so
// live_heap_mb does not grow with the number of requests a run completes.
// It holds both revisit windows with room to spare.
const coldCompileEntries = 128

// coldSamples bounds the replies kept for the re-lowering check.
const coldSamples = 6

// coldRun is the outcome of a serve_cold phase: the loop stats, plus
// sampled replies for the output check.
type coldRun struct {
	loopStats
	samples []coldSample
}

type coldSample struct {
	in    loopInput
	reply []byte
}

// runCold sends the serve_cold sequence for seed from first on, with
// clients closed-loop callers, for d. Every sixteenth unseen input's reply
// is kept (up to coldSamples) for checkCold.
func runCold(sys *servingSystem, seed int64, first, clients int, d time.Duration, rec *recorder) coldRun {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient()
		defer cs[i].close()
	}
	var mu sync.Mutex
	var out coldRun
	out.loopStats = closedLoop(clients, d, func(caller, i int) (time.Duration, error) {
		c := cs[caller]
		in, revisit := coldInput(seed, first+i)
		if err := in.checkCaps(); err != nil {
			return 0, err
		}
		body := in.body()
		t0 := time.Now()
		err := c.tracedPost(rec, sys.url+"/v1/schedule", body)
		lat := time.Since(t0)
		if err != nil {
			return lat, fmt.Errorf("%s (%s, %d nodes x %d): %w", in.Name, in.Shape, in.Nodes, in.Iters, err)
		}
		if !revisit && splitmix(seed^0x5eed, uint64(first+i))%16 == 0 {
			mu.Lock()
			if len(out.samples) < coldSamples {
				out.samples = append(out.samples, coldSample{in, bytes.Clone(c.buf.Bytes())})
			}
			mu.Unlock()
		}
		return lat, nil
	})
	return out
}

// checkCold re-lowers each sampled reply's schedule, runs it on mimdrt and
// compares every value with loopir.Interpret of the source. It returns the
// number of samples that failed, with the first error.
func checkCold(samples []coldSample) (failed int, first error) {
	for _, s := range samples {
		if err := checkReply(s); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

func checkReply(s coldSample) error {
	var env struct {
		Iterations int             `json:"iterations"`
		Schedule   json.RawMessage `json:"schedule"`
	}
	if err := json.Unmarshal(s.reply, &env); err != nil {
		return fmt.Errorf("%s: reply: %w", s.in.Name, err)
	}
	var sched plan.Schedule
	if err := sched.UnmarshalJSON(env.Schedule); err != nil {
		return fmt.Errorf("%s: %w", s.in.Name, err)
	}
	if err := sched.Validate(true); err != nil {
		return fmt.Errorf("%s: %w", s.in.Name, err)
	}
	progs, err := program.Build(&sched)
	if err != nil {
		return fmt.Errorf("%s: lower: %w", s.in.Name, err)
	}
	l, err := loopir.Parse(s.in.Source)
	if err != nil {
		return err
	}
	c, err := loopir.Compile(l)
	if err != nil {
		return err
	}
	if c.Graph.Fingerprint() != sched.Graph.Fingerprint() {
		return fmt.Errorf("%s: reply graph differs from the source's", s.in.Name)
	}
	r := mimdrt.NewRunner(c.Graph, progs, c)
	defer r.Close()
	got, err := r.Run()
	if err != nil {
		return fmt.Errorf("%s: mimdrt: %w", s.in.Name, err)
	}
	return sameValues(s.in.Name, got, c.Interpret(env.Iterations))
}
