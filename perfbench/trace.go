package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mimdloop/internal/pipeline"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the index of the span that caused this one, or -1.
type span struct {
	name       string
	req        uint64
	parent     int32
	ok         bool // success: a store Get found its key, a reply was 2xx
	start, end int64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// maxSpans bounds the recorder's memory; spans past it are counted and
// dropped.
const maxSpans = 1 << 21

// recorder keeps spans in memory for the traced run and writes them out at
// the end. Spans name their parent explicitly, except a store call's: it
// runs on the goroutine of the handler that made it, and the handler
// middleware pins that goroutine to its OS thread for the request, so a
// store span finds its parent as the innermost span open on its thread.
// (A goroutine ID would serve too, but reading one means formatting the
// goroutine's stack, which costs tens of microseconds on a handler's deep
// stack.)
type recorder struct {
	epoch   time.Time
	nextReq atomic.Uint64
	dropped atomic.Uint64
	// replyBytes counts the body bytes the handler middleware wrote.
	replyBytes atomic.Int64

	mu       sync.Mutex
	spans    []span
	onThread map[int]int32 // OS thread ID -> innermost span open on it
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), onThread: make(map[int]int32)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newReq returns a fresh request ID. The recorder methods are no-ops on a
// nil recorder, which is how untraced runs call them.
func (r *recorder) newReq() uint64 {
	if r == nil {
		return 0
	}
	return r.nextReq.Add(1)
}

// begin opens a span of request req under parent and returns its index,
// or -1 when the recorder is full or nil.
func (r *recorder) begin(name string, req uint64, parent int32) int32 {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appendLocked(span{name: name, req: req, parent: parent, start: start})
}

func (r *recorder) appendLocked(s span) int32 {
	if len(r.spans) >= maxSpans {
		r.dropped.Add(1)
		return -1
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// end closes span id (a no-op for a dropped span), recording ok.
func (r *recorder) end(id int32, ok bool) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.endLocked(id, ok, t)
	r.mu.Unlock()
}

func (r *recorder) endLocked(id int32, ok bool, t int64) {
	if id >= 0 {
		r.spans[id].end = t
		r.spans[id].ok = ok
	}
}

// threadSpan is a span opened by beginOn.
type threadSpan struct {
	tid        int
	id, prev   int32
	registered bool // the span is its thread's innermost until it ends
}

// beginOn opens a span on OS thread tid. A handler span (pinned set: its
// goroutine is locked to the thread) takes the given parent and becomes
// the thread's innermost span. Any other span nests under the thread's
// innermost span and joins its request, becoming the innermost in turn,
// only when there is one: a goroutine that is not pinned may move between
// threads, so its spans stay unparented rather than risk a wrong parent.
func (r *recorder) beginOn(tid int, name string, req uint64, parent int32, pinned bool) threadSpan {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, open := r.onThread[tid]
	if !pinned && open {
		parent, req = prev, r.spans[prev].req
	}
	h := threadSpan{tid: tid, prev: -1}
	if open {
		h.prev = prev
	}
	h.id = r.appendLocked(span{name: name, req: req, parent: parent, start: start})
	if h.id >= 0 && (pinned || open) {
		r.onThread[tid] = h.id
		h.registered = true
	}
	return h
}

// endOn closes a span opened by beginOn.
func (r *recorder) endOn(h threadSpan, ok bool) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(h.id, ok, t)
	switch {
	case !h.registered:
	case h.prev >= 0:
		r.onThread[h.tid] = h.prev
	default:
		delete(r.onThread, h.tid)
	}
}

// quiesce waits until no handler span is open: a client can read a whole
// reply before the handler that wrote it has returned.
func (r *recorder) quiesce() {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		r.mu.Lock()
		open := len(r.onThread)
		r.mu.Unlock()
		if open == 0 {
			return
		}
	}
}

// reset waits for open handler spans to end, then drops every span.
func (r *recorder) reset() {
	r.quiesce()
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.onThread = make(map[int]int32)
	r.mu.Unlock()
	r.dropped.Store(0)
	r.replyBytes.Store(0)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	total time.Duration // sum of span durations
}

func (l *layerStat) meanUs() float64 { return ratio(us(l.total), float64(l.count)) }
func (l *layerStat) meanMs() float64 { return ratio(ms(l.total), float64(l.count)) }

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := int64(0)
		cur := s.start
		for _, k := range kids {
			a, b := max(spans[k].start, cur), min(spans[k].end, s.end)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// aggregate groups the closed spans by name.
func (r *recorder) aggregate() map[string]*layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*layerStat)
	for _, s := range r.spans {
		if s.end == 0 {
			continue // still open: a client abandoned at the deadline
		}
		l := out[s.name]
		if l == nil {
			l = &layerStat{}
			out[s.name] = l
		}
		l.count++
		l.total += s.dur()
	}
	return out
}

// writeFile writes every span as one tab-separated line: index, request,
// parent, name, start and end in nanoseconds since the recorder started,
// and the outcome flag.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	fmt.Fprintln(w, "id\treq\tparent\tname\tstart_ns\tend_ns\tok")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%t\n", i, s.req, s.parent, s.name, s.start, s.end, s.ok)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHeader carries "<request ID> <client span index>" from a traced
// client to the handler middleware, so the handler span joins the
// client's request.
const traceHeader = "X-Perfbench-Span"

// middleware wraps the server's handler in a span per request, named by
// route, as a child of the client span named in traceHeader. It pins the
// handler's goroutine to its OS thread for the request, so that the store
// decorator's spans find this one as their parent.
func middleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := uint64(0), int32(-1)
		if a, b, ok := strings.Cut(r.Header.Get(traceHeader), " "); ok {
			q, err1 := strconv.ParseUint(a, 10, 64)
			p, err2 := strconv.ParseInt(b, 10, 32)
			if err1 == nil && err2 == nil {
				req, parent = q, int32(p)
			}
		}
		if req == 0 {
			req = rec.newReq()
		}
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tid := syscall.Gettid()
		h := rec.beginOn(tid, "server.handler"+r.URL.Path, req, parent, true)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		rec.replyBytes.Add(cw.n)
		rec.endOn(h, cw.status < 300)
	})
}

// countingWriter counts reply bytes and keeps the status; it forwards
// Flush, which the streaming lane type-asserts.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recordSink is the streamed-record admission capability of the disk
// tier (store.RecordSink), declared here so the decorator can forward it.
type recordSink interface {
	PutRecord(key string, r io.Reader) (*pipeline.Plan, error)
}

// tracedStore decorates a PlanStore with spans around Get and Put. Build
// it with traceStore, which adds exactly the optional capabilities the
// wrapped store has: the server and the tiered store type-assert them, so
// a decorator that dropped or invented one would change the code path the
// traced run measures.
type tracedStore struct {
	inner pipeline.PlanStore
	rec   *recorder
	tier  string // span prefix: store, store.mem or store.disk
}

// span runs fn in a span named after the tier, under the span open on
// the calling thread.
func (t *tracedStore) span(op string, fn func() bool) {
	h := t.rec.beginOn(syscall.Gettid(), t.tier+"."+op, 0, -1, false)
	t.rec.endOn(h, fn())
}

func (t *tracedStore) Get(key string) (p *pipeline.Plan, ok bool) {
	t.span("get", func() bool { p, ok = t.inner.Get(key); return ok })
	return p, ok
}

func (t *tracedStore) Put(key string, p *pipeline.Plan) {
	t.span("put", func() bool { t.inner.Put(key, p); return true })
}

func (t *tracedStore) Delete(key string)          { t.inner.Delete(key) }
func (t *tracedStore) Len() int                   { return t.inner.Len() }
func (t *tracedStore) Bytes() int64               { return t.inner.Bytes() }
func (t *tracedStore) Flush() error               { return t.inner.Flush() }
func (t *tracedStore) Close() error               { return t.inner.Close() }
func (t *tracedStore) Stats() pipeline.StoreStats { return t.inner.Stats() }

// listingStore adds pipeline.PlanLister.
type listingStore struct{ *tracedStore }

func (t listingStore) Plans() []pipeline.PlanInfo { return t.inner.(pipeline.PlanLister).Plans() }

// recordStore adds pipeline.RecordOpener.
type recordStore struct{ listingStore }

func (t recordStore) OpenRecord(key string) (rc io.ReadCloser, n int64, err error) {
	t.span("open_record", func() bool {
		rc, n, err = t.inner.(pipeline.RecordOpener).OpenRecord(key)
		return err == nil
	})
	return rc, n, err
}

// sinkStore adds the record sink.
type sinkStore struct{ recordStore }

func (t sinkStore) PutRecord(key string, r io.Reader) (p *pipeline.Plan, err error) {
	t.span("put_record", func() bool {
		p, err = t.inner.(recordSink).PutRecord(key, r)
		return err == nil
	})
	return p, err
}

// traceStore decorates inner under the span prefix tier. It supports the
// capability sets of the stores the benchmark builds: the memory tier
// lists; the tiered store also opens records; the disk tier also admits
// them.
func traceStore(inner pipeline.PlanStore, rec *recorder, tier string) (pipeline.PlanStore, error) {
	t := &tracedStore{inner: inner, rec: rec, tier: tier}
	_, lists := inner.(pipeline.PlanLister)
	_, opens := inner.(pipeline.RecordOpener)
	_, sinks := inner.(recordSink)
	switch {
	case lists && opens && sinks:
		return sinkStore{recordStore{listingStore{t}}}, nil
	case lists && opens:
		return recordStore{listingStore{t}}, nil
	case lists && !sinks:
		return listingStore{t}, nil
	}
	return nil, fmt.Errorf("no decorator for a %T (lister %t, opener %t, sink %t)", inner, lists, opens, sinks)
}
