package main

import (
	"errors"
	"fmt"
	"strings"

	"mimdloop/internal/classify"
	"mimdloop/internal/core"
	"mimdloop/internal/loopir"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/program"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"tail_us", "us"},
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "bytes"},
	{"live_heap_mb", "MiB"},
	{"record_bytes_per_loop", "bytes"},
	{"plan_speedup", "ratio"},
}

// perLayer are the metrics of a traced run, on every workload. A layer the
// workload does not exercise reads 0. BENCHMARK.json lists the same names.
var perLayer = []metricDef{
	{"loopir.parse_ms", "ms"},
	{"loopir.parse_ns_per_byte", "ns/B"},
	{"loopir.compile_ms", "ms"},
	{"loopir.interpret_ns_per_iter", "ns"},
	{"classify.partition_us", "us"},
	{"core.cyclic_sched_ms", "ms"},
	{"core.schedule_loop_ms", "ms"},
	{"core.expand_compose_ms", "ms"},
	{"core.placements_per_loop", "count"},
	{"core.greedy_fallback_ratio", "ratio"},
	{"plan.validate_ms", "ms"},
	{"program.build_ms", "ms"},
	{"program.instrs_per_loop", "count"},
	{"program.messages_per_loop", "count"},
	{"pipeline.encode_ms", "ms"},
	{"pipeline.decode_ms", "ms"},
	{"pipeline.schedule_json_ms", "ms"},
	{"pipeline.compile_hit_us", "us"},
	{"pipeline.hit_body_us", "us"},
	{"pipeline.hit_ratio", "ratio"},
	{"pipeline.computes_per_miss", "ratio"},
	{"store.get_mem_hit_us", "us"},
	{"store.get_disk_hit_us", "us"},
	{"store.get_miss_us", "us"},
	{"store.put_ms", "ms"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_hit_ratio", "ratio"},
	{"store.evictions", "count"},
	{"store.promotes", "count"},
	{"server.handler_schedule_us", "us"},
	{"server.handler_batch_us", "us"},
	{"server.handler_self_us", "us"},
	{"server.reply_bytes", "bytes"},
	{"server.streamed_ratio", "ratio"},
	{"http.client_overhead_us", "us"},
	{"mimdrt.run_ns_per_iter", "ns"},
	{"mimdrt.chunked_ns_per_iter", "ns"},
	{"mimdrt.runner_setup_us", "us"},
	{"mimdrt.sequential_ns_per_iter", "ns"},
	{"machine.run_ns_per_iter", "ns"},
	{"machine.messages_per_iter", "count"},
	{"trace.ops_overhead_ratio", "ratio"},
	{"trace.p50_overhead_us", "us"},
}

// replayStats counts what the layer replay saw, for the per-loop metrics.
type replayStats struct {
	loops, fallbacks          int
	sourceBytes, iters        int
	placements, instrs, sends int
}

// replay runs each input through the public layer functions in pipeline
// order, one span per stage under a span per input, so every stage gets
// its own time: Parse, Compile, Partition, CyclicSchedAll, ScheduleLoop,
// Validate, Build, then the pipeline's ScheduleJSON, EncodePlan and
// DecodePlan, the compile-cache hit and the memoized hit body, and the
// reference interpreter.
func replay(rec *recorder, inputs []loopInput) (replayStats, error) {
	pipe := pipeline.New(pipeline.Config{})
	defer pipe.Close()
	var rs replayStats
	for _, in := range inputs {
		if err := replayOne(rec, pipe, in, &rs); err != nil {
			return rs, fmt.Errorf("replay %s: %w", in.Name, err)
		}
	}
	return rs, nil
}

func replayOne(rec *recorder, pipe *pipeline.Pipeline, in loopInput, rs *replayStats) error {
	req := rec.newReq()
	root := rec.begin("replay", req, -1)
	defer rec.end(root, true)
	stage := func(name string, fn func()) {
		id := rec.begin(name, req, root)
		fn()
		rec.end(id, true)
	}
	opts := core.Options{Processors: in.Procs, CommCost: commCost, Grain: in.Grain}
	var (
		l    *loopir.Loop
		c    *loopir.Compiled
		ls   *core.LoopSchedule
		err  error
		errs []error
	)
	stage("loopir.parse", func() { l, err = loopir.Parse(in.Source) })
	if err != nil {
		return err
	}
	stage("loopir.compile", func() { c, err = loopir.Compile(l) })
	if err != nil {
		return err
	}
	g := c.Graph
	var cls *classify.Result
	stage("classify.partition", func() { cls = classify.Partition(g) })
	if !cls.IsDOALL() && in.Grain <= 1 {
		sub, _, err := classify.CyclicSubgraph(g, cls)
		if err != nil {
			return err
		}
		stage("core.cyclic_sched", func() { _, err = core.CyclicSchedAll(sub, opts) })
		if err != nil && !errors.Is(err, core.ErrNoPattern) {
			return err
		}
	}
	stage("core.schedule_loop", func() { ls, err = core.ScheduleLoop(g, opts, in.Iters) })
	if err != nil {
		return err
	}
	stage("plan.validate", func() { err = ls.Full.Validate(true) })
	if err != nil {
		return err
	}
	var progs []program.Program
	stage("program.build", func() { progs, err = program.Build(ls.Full) })
	if err != nil {
		return err
	}
	st := program.Summarize(progs)
	rs.loops++
	rs.sourceBytes += len(in.Source)
	rs.iters += in.Iters
	rs.placements += len(ls.Full.Placements)
	rs.instrs += st.Computes + st.Sends + st.Recvs
	rs.sends += st.Sends
	if ls.GreedyFallback {
		rs.fallbacks++
	}

	// The serving layer's own stages run on the pipeline's plan, which the
	// pipeline builds (again) from the compiled graph.
	p, _, err := pipe.Schedule(g, opts, in.Iters)
	if err != nil {
		return err
	}
	var recBytes []byte
	stage("pipeline.schedule_json", func() { _, err = p.ScheduleJSON() })
	errs = append(errs, err)
	stage("pipeline.encode", func() { recBytes, err = pipeline.EncodePlan(p) })
	errs = append(errs, err)
	if err == nil {
		stage("pipeline.decode", func() { _, _, err = pipeline.DecodePlan(recBytes) })
		errs = append(errs, err)
	}
	_, err = pipe.Compile(in.Source)
	errs = append(errs, err)
	stage("pipeline.compile_hit", func() { _, err = pipe.Compile(in.Source) })
	errs = append(errs, err)
	render := func() ([]byte, error) { return p.ScheduleJSON() }
	_, err = p.HitResponseBody(l.Name, render)
	errs = append(errs, err)
	stage("pipeline.hit_body", func() { _, err = p.HitResponseBody(l.Name, render) })
	errs = append(errs, err)
	stage("loopir.interpret", func() { c.Interpret(in.Iters) })
	return errors.Join(errs...)
}

// replayLayers turns the replay's spans and counts into metrics.
func replayLayers(m map[string]float64, agg map[string]*layerStat, rs replayStats) {
	if rs.loops == 0 {
		return
	}
	get := func(name string) *layerStat {
		if l := agg[name]; l != nil {
			return l
		}
		return &layerStat{}
	}
	n := float64(rs.loops)
	m["loopir.parse_ms"] = get("loopir.parse").meanMs()
	m["loopir.parse_ns_per_byte"] = ratio(float64(get("loopir.parse").total), float64(rs.sourceBytes))
	m["loopir.compile_ms"] = get("loopir.compile").meanMs()
	m["loopir.interpret_ns_per_iter"] = ratio(float64(get("loopir.interpret").total), float64(rs.iters))
	m["classify.partition_us"] = get("classify.partition").meanUs()
	m["core.cyclic_sched_ms"] = get("core.cyclic_sched").meanMs()
	m["core.schedule_loop_ms"] = get("core.schedule_loop").meanMs()
	// ScheduleLoop runs Partition and Cyclic-sched itself; what remains of
	// its time is expansion and composition.
	m["core.expand_compose_ms"] = ms(get("core.schedule_loop").total-get("classify.partition").total-get("core.cyclic_sched").total) / n
	m["core.placements_per_loop"] = float64(rs.placements) / n
	m["core.greedy_fallback_ratio"] = float64(rs.fallbacks) / n
	m["plan.validate_ms"] = get("plan.validate").meanMs()
	m["program.build_ms"] = get("program.build").meanMs()
	m["program.instrs_per_loop"] = float64(rs.instrs) / n
	m["program.messages_per_loop"] = float64(rs.sends) / n
	m["pipeline.encode_ms"] = get("pipeline.encode").meanMs()
	m["pipeline.decode_ms"] = get("pipeline.decode").meanMs()
	m["pipeline.schedule_json_ms"] = get("pipeline.schedule_json").meanMs()
	m["pipeline.compile_hit_us"] = get("pipeline.compile_hit").meanUs()
	m["pipeline.hit_body_us"] = get("pipeline.hit_body").meanUs()
}

// servingLayers turns the spans of traced serving traffic into the store,
// server and http metrics.
func servingLayers(m map[string]float64, rec *recorder) {
	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	self := selfTimes(spans)
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	var memHit, diskHit, miss, put, sched, batch, handlerSelf, overhead []float64
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		d := us(s.dur())
		switch {
		case s.name == "store.get" && !s.ok:
			miss = append(miss, d)
		case s.name == "store.get":
			disk := false
			for _, k := range kids[i] {
				disk = disk || spans[k].name == "store.disk.get"
			}
			if disk {
				diskHit = append(diskHit, d)
			} else {
				memHit = append(memHit, d)
			}
		case s.name == "store.put":
			put = append(put, d/1e3)
		case s.name == "server.handler/v1/schedule":
			sched = append(sched, d)
			handlerSelf = append(handlerSelf, us(self[i]))
		case s.name == "server.handler/v1/batch":
			batch = append(batch, d)
			handlerSelf = append(handlerSelf, us(self[i]))
		case s.name == "http.client":
			for _, k := range kids[i] {
				if strings.HasPrefix(spans[k].name, "server.handler") && spans[k].end != 0 {
					overhead = append(overhead, d-us(spans[k].dur()))
				}
			}
		}
	}
	m["store.get_mem_hit_us"] = mean(memHit)
	m["store.get_disk_hit_us"] = mean(diskHit)
	m["store.get_miss_us"] = mean(miss)
	m["store.put_ms"] = mean(put)
	m["server.handler_schedule_us"] = mean(sched)
	m["server.handler_batch_us"] = mean(batch)
	m["server.handler_self_us"] = mean(handlerSelf)
	m["server.reply_bytes"] = ratio(float64(rec.replyBytes.Load()), float64(len(sched)+len(batch)))
	m["http.client_overhead_us"] = mean(overhead)
}

// storeLayers turns the pipeline and store counter deltas over a traced
// phase into ratios.
func storeLayers(m map[string]float64, before, after pipeline.Stats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	m["pipeline.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["pipeline.computes_per_miss"] = ratio(float64(after.Computes-before.Computes), float64(misses))
	tierHits := func(s pipeline.Stats, kind string) float64 {
		t, _ := s.Store.Tier(kind)
		return float64(t.Hits)
	}
	gets := float64(after.Store.Hits + after.Store.Misses - before.Store.Hits - before.Store.Misses)
	m["store.mem_hit_ratio"] = ratio(tierHits(after, "memory")-tierHits(before, "memory"), gets)
	m["store.disk_hit_ratio"] = ratio(tierHits(after, "disk")-tierHits(before, "disk"), gets)
	m["store.evictions"] = float64(after.Evictions - before.Evictions)
	m["store.promotes"] = float64(after.Store.Promotes - before.Store.Promotes)
}

// planNsPerIter is the geomean over plans of each plan's median op time
// divided by its iteration count.
func planNsPerIter(plans []*execPlan, lat [][]float64, keep func(*execPlan) bool) float64 {
	var xs []float64
	for j, p := range plans {
		if keep(p) && len(lat[j]) > 0 {
			xs = append(xs, median(lat[j])*1e3/float64(p.in.Iters))
		}
	}
	return geomean(xs)
}
