package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// referenceDecodePlan is DecodePlan with every byte read by
// encoding/json: the record through planRecord's json tags and the
// schedule through a mirror of plan's wire structs. It shares only the
// post-decode validation (planRecord.plan) with DecodePlan, so comparing
// the two checks the hand-written decoder against encoding/json.
func referenceDecodePlan(data []byte) (string, *Plan, error) {
	var rec planRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return "", nil, err
	}
	full, err := referenceSchedule(rec.Schedule)
	if err != nil {
		return "", nil, err
	}
	rec.full = full
	return rec.plan()
}

// referenceSchedule decodes the plan wire format with encoding/json.
func referenceSchedule(data []byte) (*plan.Schedule, error) {
	var in struct {
		Timing     plan.Timing `json:"timing"`
		Processors int         `json:"processors"`
		Grain      int         `json:"grain,omitempty"`
		Nodes      []struct {
			Name    string `json:"name"`
			Latency int    `json:"latency"`
		} `json:"nodes"`
		Edges []struct {
			From     int `json:"from"`
			To       int `json:"to"`
			Distance int `json:"distance"`
			Cost     int `json:"cost"`
		} `json:"edges"`
		Placements []struct {
			Node  int `json:"node"`
			Iter  int `json:"iter"`
			Proc  int `json:"proc"`
			Start int `json:"start"`
		} `json:"placements"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	nodes := make([]graph.Node, len(in.Nodes))
	for i, nd := range in.Nodes {
		nodes[i] = graph.Node{ID: i, Name: nd.Name, Latency: nd.Latency}
	}
	edges := make([]graph.Edge, len(in.Edges))
	for i, e := range in.Edges {
		edges[i] = graph.Edge{From: e.From, To: e.To, Distance: e.Distance, Cost: e.Cost}
	}
	g, err := graph.New(nodes, edges)
	if err != nil {
		return nil, err
	}
	if in.Grain < 0 {
		return nil, fmt.Errorf("negative grain %d", in.Grain)
	}
	if in.Grain > 1 {
		if _, err := graph.Chunked(g, in.Grain); err != nil {
			return nil, err
		}
	}
	s := &plan.Schedule{Graph: g, Timing: in.Timing, Processors: in.Processors, Grain: in.Grain}
	for _, p := range in.Placements {
		s.Placements = append(s.Placements, plan.Placement{Node: p.Node, Iter: p.Iter, Proc: p.Proc, Start: p.Start})
	}
	return s, nil
}

// planDiff reports the first field in which two decoded plans differ.
func planDiff(a, b *Plan) string {
	ja, _ := a.ScheduleJSON()
	jb, _ := b.ScheduleJSON()
	switch {
	case a.GraphHash != b.GraphHash:
		return "graph hash"
	case !reflect.DeepEqual(a.Opts, b.Opts):
		return "options"
	case a.Iterations != b.Iterations:
		return "iterations"
	case !reflect.DeepEqual(a.Schedule, b.Schedule):
		return "schedule"
	case !reflect.DeepEqual(a.Programs, b.Programs):
		return "programs"
	case a.makespan != b.makespan || a.procs != b.procs || a.rate != b.rate:
		return "serving summary"
	case !reflect.DeepEqual(a.pattern, b.pattern):
		return "pattern"
	case !reflect.DeepEqual(a.MeasuredAll(), b.MeasuredAll()) || a.measuredGeneration() != b.measuredGeneration():
		return "measurements"
	case !bytes.Equal(ja, jb):
		return "schedule JSON"
	}
	return ""
}

// FuzzDecodePlan: DecodePlan never panics, and whatever it accepts
// encoding/json accepts too and decodes to the same plan. Seeds are
// under testdata/fuzz/FuzzDecodePlan (see TestDecodePlanSeedCorpus).
func FuzzDecodePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		key, p, err := DecodePlan(data)
		if err != nil {
			return
		}
		refKey, ref, refErr := referenceDecodePlan(data)
		if refErr != nil {
			t.Fatalf("DecodePlan accepted a record encoding/json rejects: %v", refErr)
		}
		if key != refKey {
			t.Fatalf("key %q, encoding/json decodes %q", key, refKey)
		}
		if d := planDiff(p, ref); d != "" {
			t.Fatalf("decoded plan differs from encoding/json's in its %s", d)
		}
	})
}

// readSeedCorpus returns the inputs of a native fuzz seed corpus.
func readSeedCorpus(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, de := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, body, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		if !ok || header != "go test fuzz v1" || !strings.HasPrefix(body, "[]byte(") || !strings.HasSuffix(body, ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", de.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", de.Name(), err)
		}
		out[de.Name()] = []byte(data)
	}
	return out
}

// TestDecodePlanSeedCorpus pins the fuzz seeds: EncodePlan output for
// Figure 7 (grain 0) and a grain-4 stream chain, and version-1, -2 and
// -3 records. Every seed decodes; every version-4 seed re-encodes to
// exactly its own bytes, so the seeds also pin the record format.
func TestDecodePlanSeedCorpus(t *testing.T) {
	seeds := readSeedCorpus(t, filepath.Join("testdata", "fuzz", "FuzzDecodePlan"))
	versions := map[string]bool{}
	for name, data := range seeds {
		_, p, err := DecodePlan(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var hdr struct{ Version int }
		if err := json.Unmarshal(data, &hdr); err != nil {
			t.Fatal(err)
		}
		versions[strconv.Itoa(hdr.Version)] = true
		if hdr.Version != planRecordVersion {
			continue
		}
		again, err := EncodePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoded record differs from the seed", name)
		}
	}
	for _, v := range []string{"1", "2", "3", "4"} {
		if !versions[v] {
			t.Errorf("no version-%s seed", v)
		}
	}
}
