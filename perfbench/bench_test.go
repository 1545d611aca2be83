package main

import (
	"io"
	"slices"
	"testing"

	"mimdloop/internal/loopir"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/store"
)

// Every generated input stays under the serving caps, and its declared
// node count is the compiled graph's.
func TestInputsWithinCapsAndSized(t *testing.T) {
	var inputs []loopInput
	for seed := int64(1); seed <= 2; seed++ {
		h, err := newHotSet(seed)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, h.keys[:20]...)
		inputs = append(inputs, h.stream)
		for i := 0; i < 12; i++ {
			in, _ := coldInput(seed, i)
			inputs = append(inputs, in)
		}
		inputs = append(inputs, execInputs(seed)...)
	}
	inputs = append(inputs, countSuite()...)
	for _, in := range inputs {
		if err := in.checkCaps(); err != nil {
			t.Fatal(err)
		}
		l, err := loopir.Parse(in.Source)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		c, err := loopir.Compile(l)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if c.Graph.N() != in.Nodes {
			t.Fatalf("%s: compiled to %d nodes, declared %d", in.Name, c.Graph.N(), in.Nodes)
		}
	}
}

// The serve_cold sequence is a function of (seed, index): every fourth
// request revisits one of the latest unseen keys of its shape, and both
// the unseen keys and the revisits alternate between long and wide loops.
func TestColdSequence(t *testing.T) {
	seen := map[string]bool{}
	shapes := map[string]int{}
	order := map[string][]string{} // unseen sources by shape, oldest first
	for i := 0; i < 256; i++ {
		in, revisit := coldInput(7, i)
		again, _ := coldInput(7, i)
		if in.Source != again.Source {
			t.Fatalf("input %d differs between two draws", i)
		}
		if revisit != (i%4 == 3) {
			t.Fatalf("input %d: revisit = %t", i, revisit)
		}
		if revisit && !seen[in.Source] {
			t.Fatalf("input %d revisits a key not sent before", i)
		}
		if want := []string{"long", "wide"}[(i/4)%2]; revisit && in.Shape != want {
			t.Fatalf("revisit %d is a %s loop, want %s", i, in.Shape, want)
		}
		if revisit {
			latest := order[in.Shape][max(0, len(order[in.Shape])-coldRevisitWindow):]
			if !slices.Contains(latest, in.Source) {
				t.Fatalf("revisit %d is not among the latest %d %s keys", i, coldRevisitWindow, in.Shape)
			}
		} else {
			if seen[in.Source] {
				t.Fatalf("unseen input %d repeats a key", i)
			}
			seen[in.Source] = true
			shapes[in.Shape]++
			order[in.Shape] = append(order[in.Shape], in.Source)
		}
	}
	if shapes["long"] != 96 || shapes["wide"] != 96 {
		t.Fatalf("shapes %v, want 96 long and 96 wide", shapes)
	}
}

// Self time is a span's duration minus the union of its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "handler", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50},
		{name: "c", parent: 0, start: 70, end: 80},
		{name: "d", parent: 3, start: 72, end: 75},
	}
	got := selfTimes(spans)
	for i, want := range []int64{50, 20, 30, 7, 3} {
		if int64(got[i]) != want {
			t.Fatalf("span %s: self %d, want %d", spans[i].name, got[i], want)
		}
	}
}

// The store decorator has exactly the optional capabilities of the store
// it wraps.
func TestTraceStoreForwardsCapabilities(t *testing.T) {
	disk, err := store.Open(store.DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mem := pipeline.NewMemStore(pipeline.MemConfig{})
	tiered := store.NewTiered(mem, disk)
	defer tiered.Close()
	caps := func(s pipeline.PlanStore) [3]bool {
		_, l := s.(pipeline.PlanLister)
		_, o := s.(pipeline.RecordOpener)
		_, k := s.(interface {
			PutRecord(string, io.Reader) (*pipeline.Plan, error)
		})
		return [3]bool{l, o, k}
	}
	rec := newRecorder()
	for _, inner := range []pipeline.PlanStore{mem, disk, tiered} {
		traced, err := traceStore(inner, rec, "store")
		if err != nil {
			t.Fatal(err)
		}
		if caps(traced) != caps(inner) {
			t.Fatalf("%T: decorated capabilities %v, wrapped %v", inner, caps(traced), caps(inner))
		}
	}
}

// A store span nests under the handler pinned to its thread and joins its
// request; on a thread with no handler it stays unparented, and nothing is
// left registered once the spans end.
func TestThreadNesting(t *testing.T) {
	rec := newRecorder()
	h := rec.beginOn(7, "server.handler", 42, 3, true)
	get := rec.beginOn(7, "store.get", 0, -1, false)
	tier := rec.beginOn(7, "store.mem.get", 0, -1, false)
	rec.endOn(tier, true)
	rec.endOn(get, true)
	rec.endOn(h, true)
	lone := rec.beginOn(8, "store.get", 0, -1, false)
	rec.endOn(lone, false)
	want := []struct {
		parent int32
		req    uint64
	}{{3, 42}, {0, 42}, {1, 42}, {-1, 0}}
	for i, w := range want {
		if s := rec.spans[i]; s.parent != w.parent || s.req != w.req {
			t.Fatalf("span %d (%s): parent %d req %d, want %d %d", i, s.name, s.parent, s.req, w.parent, w.req)
		}
	}
	if len(rec.onThread) != 0 {
		t.Fatalf("threads still registered: %v", rec.onThread)
	}
}
