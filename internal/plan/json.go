package plan

import (
	"encoding/json"
	"fmt"

	"mimdloop/internal/graph"
	"mimdloop/internal/jsonscan"
)

// scheduleJSON is the stable wire format: the graph is embedded so a
// schedule file is self-contained and can be validated on load.
type scheduleJSON struct {
	Timing     Timing `json:"timing"`
	Processors int    `json:"processors"`
	// Grain marks chunk-space placements (omitted for the default
	// iteration-space schedules, keeping pre-grain wire bytes identical).
	Grain      int         `json:"grain,omitempty"`
	Nodes      []nodeJSON  `json:"nodes"`
	Edges      []edgeJSON  `json:"edges"`
	Placements []placeJSON `json:"placements"`
}

type nodeJSON struct {
	Name    string `json:"name"`
	Latency int    `json:"latency"`
}

type edgeJSON struct {
	From     int `json:"from"`
	To       int `json:"to"`
	Distance int `json:"distance"`
	Cost     int `json:"cost"` // -1 = machine default
}

type placeJSON struct {
	Node  int `json:"node"`
	Iter  int `json:"iter"`
	Proc  int `json:"proc"`
	Start int `json:"start"`
}

// MarshalJSON encodes the schedule with its graph.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{
		Timing:     s.Timing,
		Processors: s.Processors,
		Grain:      s.Grain,
	}
	for _, nd := range s.Graph.Nodes {
		out.Nodes = append(out.Nodes, nodeJSON{Name: nd.Name, Latency: nd.Latency})
	}
	for _, e := range s.Graph.Edges {
		out.Edges = append(out.Edges, edgeJSON{From: e.From, To: e.To, Distance: e.Distance, Cost: e.Cost})
	}
	for _, p := range s.Placements {
		out.Placements = append(out.Placements, placeJSON{Node: p.Node, Iter: p.Iter, Proc: p.Proc, Start: p.Start})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and structurally validates a schedule (graph
// construction re-checks node/edge invariants; Validate is left to the
// caller, which knows whether the schedule should be complete).
//
// The decode is one jsonscan pass over the wire format above (see
// ScanJSON).
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var out Schedule
	sc := jsonscan.New(data)
	if err := out.ScanJSON(sc); err != nil {
		return err
	}
	if err := sc.End(); err != nil {
		return fmt.Errorf("plan: decode schedule: %w", err)
	}
	*s = out
	return nil
}

// ScanJSON decodes one schedule from the scanner's next value, for
// callers that embed a schedule in a larger document. The nodes, edges
// and placements arrays are read without reflection, and only the small
// timing object goes through encoding/json. Keys must be spelled exactly
// as scheduleJSON's tags (see package jsonscan for the accepted subset
// of encoding/json).
func (s *Schedule) ScanJSON(sc *jsonscan.Scanner) error {
	var (
		in     scheduleJSON
		nodes  []graph.Node
		edges  []graph.Edge
		places []Placement
	)
	err := sc.Object(func(key []byte) error {
		switch string(key) {
		case "timing":
			return sc.JSON(&in.Timing)
		case "processors":
			return jsonscan.Int(sc, &in.Processors)
		case "grain":
			return jsonscan.Int(sc, &in.Grain)
		case "nodes":
			return jsonscan.Slice(sc, &nodes, func(nd *graph.Node) error {
				return sc.Object(func(key []byte) error {
					switch string(key) {
					case "name":
						return sc.String(&nd.Name)
					case "latency":
						return jsonscan.Int(sc, &nd.Latency)
					}
					return sc.UnknownKey(key)
				})
			})
		case "edges":
			return jsonscan.Slice(sc, &edges, func(e *graph.Edge) error {
				return sc.Object(func(key []byte) error {
					switch string(key) {
					case "from":
						return jsonscan.Int(sc, &e.From)
					case "to":
						return jsonscan.Int(sc, &e.To)
					case "distance":
						return jsonscan.Int(sc, &e.Distance)
					case "cost":
						return jsonscan.Int(sc, &e.Cost)
					}
					return sc.UnknownKey(key)
				})
			})
		case "placements":
			return jsonscan.Slice(sc, &places, func(p *Placement) error {
				return sc.Object(func(key []byte) error {
					switch string(key) {
					case "node":
						return jsonscan.Int(sc, &p.Node)
					case "iter":
						return jsonscan.Int(sc, &p.Iter)
					case "proc":
						return jsonscan.Int(sc, &p.Proc)
					case "start":
						return jsonscan.Int(sc, &p.Start)
					}
					return sc.UnknownKey(key)
				})
			})
		}
		return sc.UnknownKey(key)
	})
	if err != nil {
		return fmt.Errorf("plan: decode schedule: %w", err)
	}
	for i := range nodes {
		nodes[i].ID = i
	}
	g, err := graph.New(nodes, edges)
	if err != nil {
		return fmt.Errorf("plan: decode schedule graph: %w", err)
	}
	if in.Grain < 0 {
		return fmt.Errorf("plan: decode schedule: negative grain %d", in.Grain)
	}
	if in.Grain > 1 {
		// A grain the schedule was built under always chunks; checking at
		// decode time keeps EffectiveGraph panic-free on tampered records.
		if _, err := graph.Chunked(g, in.Grain); err != nil {
			return fmt.Errorf("plan: decode schedule: %w", err)
		}
	}
	s.Graph = g
	s.Timing = in.Timing
	s.Processors = in.Processors
	s.Grain = in.Grain
	s.Placements = nil
	if len(places) > 0 {
		s.Placements = places
	}
	return nil
}
