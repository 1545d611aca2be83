package plan

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mimdloop/internal/graph"
)

// referenceUnmarshal is Schedule.UnmarshalJSON with every byte read by
// encoding/json into scheduleJSON.
func referenceUnmarshal(data []byte) (*Schedule, error) {
	var in scheduleJSON
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
	s := &Schedule{Graph: g, Timing: in.Timing, Processors: in.Processors, Grain: in.Grain}
	for _, p := range in.Placements {
		s.Placements = append(s.Placements, Placement{Node: p.Node, Iter: p.Iter, Proc: p.Proc, Start: p.Start})
	}
	return s, nil
}

// FuzzScheduleUnmarshal: UnmarshalJSON never panics, and whatever it
// accepts encoding/json accepts too and decodes to the same schedule.
// Seeds under testdata/fuzz/FuzzScheduleUnmarshal are the schedules of
// the plan-record seeds (Figure 7 at grain 0, a stream chain at grain 4)
// plus a two-node schedule with every timing field set.
func FuzzScheduleUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if err := s.UnmarshalJSON(data); err != nil {
			return
		}
		ref, err := referenceUnmarshal(data)
		if err != nil {
			t.Fatalf("UnmarshalJSON accepted a schedule encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(&s, ref) {
			t.Fatalf("decoded schedule differs from encoding/json's:\n got %+v\nwant %+v", s, *ref)
		}
	})
}
