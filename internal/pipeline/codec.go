package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"

	"mimdloop/internal/core"
	"mimdloop/internal/jsonscan"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
)

// The durable plan-record format. A record is one JSON object with a
// format/version header, the full cache key and its three ingredients
// (graph fingerprint, options, iterations), the serving summary
// (rate, processor accounting, pattern), the composed schedule in the
// internal/plan wire format (graph embedded, byte-for-byte the same JSON
// Plan.ScheduleJSON serves), and the lowered per-processor programs.
// Everything the serving surface reads off a Plan round-trips; the
// scheduler's intermediate state (per-component Cyclic-sched results,
// classification) deliberately does not — it is re-derivable and only
// needed to *construct* plans, never to serve them.
//
// Version history:
//
//	1 — the PR 3 format: key, ingredients, serving summary, schedule,
//	    programs.
//	2 — adds the optional "measured" block (MeasuredStats): the plan's
//	    most recent measured evaluation on the simulated machine.
//	3 — replaces "measured" with "measured_by": one self-describing
//	    MeasuredStats per execution backend (sim, gort), sorted by
//	    backend name, so annotations from different backends coexist
//	    instead of overwriting each other. Version-1 and -2 records
//	    still decode (a v2 "measured" block is adopted as the sim
//	    backend's annotation); version-3 records without a measurement
//	    are byte-compatible with version 1 apart from the header.
//	4 — adds the grain axis: options carry "Grain" and the embedded
//	    schedule carries "grain" when a plan was scheduled in chunk
//	    space; both fields are omitted at the default (grain 0/1), so
//	    grain-free version-4 records are byte-compatible with version 3
//	    apart from the header, and version <= 3 records decode as
//	    grain 0 with their original keys intact.
//
// Decoding (planRecord.decode) is one reflection-free jsonscan pass
// with an exact-key rule: every key must be spelled exactly as the
// encoder writes it. Unknown keys, keys differing only in case and
// escaped keys are rejected rather than ignored or case-folded as
// encoding/json would; everything else — repeated keys, nulls, integer
// range — decodes exactly as encoding/json decodes it, so any record
// DecodePlan accepts, encoding/json accepts too and decodes to the same
// plan (pinned by FuzzDecodePlan).
//
// Decoded annotations are not codec-internal state: the server includes
// them in /v1/schedule replies as the "measured_by" field, and restoring
// them via SetMeasured advances the plan's measured generation — which
// keys the pre-rendered cache-hit response body (Plan.HitResponseBody),
// so a disk-restored measurement invalidates any stale hit body exactly
// like a fresh one.
const (
	planRecordFormat  = "mimdloop/plan"
	planRecordVersion = 4

	// planRecordMinVersion is the oldest record version DecodePlan still
	// accepts.
	planRecordMinVersion = 1
)

// planRecord is the wire form of one persisted plan.
type planRecord struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Key        string       `json:"key"`
	GraphHash  string       `json:"graph_hash"`
	Options    core.Options `json:"options"`
	Iterations int          `json:"iterations"`

	Rate     float64 `json:"rate_cycles_per_iteration"`
	Procs    int     `json:"procs"`
	Makespan int     `json:"makespan"`

	CyclicProcs    int  `json:"cyclic_procs"`
	FlowInProcs    int  `json:"flow_in_procs"`
	FlowOutProcs   int  `json:"flow_out_procs"`
	Folded         bool `json:"folded"`
	GreedyFallback bool `json:"greedy_fallback"`

	Pattern *PatternInfo `json:"pattern,omitempty"`

	// Measured is the version-2 single-annotation block, decoded for
	// backward compatibility and never encoded at version 3.
	Measured *MeasuredStats `json:"measured,omitempty"`
	// MeasuredBy is the plan's last measured evaluation per execution
	// backend, sorted by backend name (version >= 3; omitted when the
	// plan was only ever scored statically).
	MeasuredBy []*MeasuredStats `json:"measured_by,omitempty"`

	Schedule json.RawMessage   `json:"schedule"`
	Programs []program.Program `json:"programs"`

	// full is Schedule decoded, filled by decode in the same pass.
	full *plan.Schedule
}

// EncodePlan serializes a plan to the durable record format. The
// record's key is derived from the plan's own ingredients (PlanKey), so
// a record can never claim to answer a request its content does not
// match.
func EncodePlan(p *Plan) ([]byte, error) {
	sched, err := p.ScheduleJSON()
	if err != nil {
		return nil, fmt.Errorf("pipeline: encode plan schedule: %w", err)
	}
	return json.Marshal(&planRecord{
		Format:         planRecordFormat,
		Version:        planRecordVersion,
		Key:            PlanKey(p.GraphHash, p.Opts, p.Iterations),
		GraphHash:      p.GraphHash,
		Options:        p.Opts,
		Iterations:     p.Iterations,
		Rate:           p.Rate(),
		Procs:          p.Procs(),
		Makespan:       p.Makespan(),
		CyclicProcs:    p.Schedule.CyclicProcs,
		FlowInProcs:    p.Schedule.FlowInProcs,
		FlowOutProcs:   p.Schedule.FlowOutProcs,
		Folded:         p.Schedule.Folded,
		GreedyFallback: p.Schedule.GreedyFallback,
		Pattern:        p.Pattern(),
		MeasuredBy:     p.MeasuredAll(),
		Schedule:       sched,
		Programs:       p.Programs,
	})
}

// DecodePlan reverses EncodePlan, structurally validating the record. It
// returns the plan's full cache key alongside the reconstructed plan.
//
// A decoded plan serves identically to the freshly-built original —
// same accessors, same pattern summary, byte-identical ScheduleJSON —
// but carries no scheduler intermediate state: Schedule.Multi and
// Schedule.Class are nil. Consumers that need those re-schedule; the
// serving surface never does.
func DecodePlan(data []byte) (key string, p *Plan, err error) {
	var rec planRecord
	if err := rec.decode(data); err != nil {
		return "", nil, fmt.Errorf("pipeline: decode plan record: %w", err)
	}
	return rec.plan()
}

// plan validates a decoded record and builds the plan it describes.
func (rec *planRecord) plan() (key string, p *Plan, err error) {
	if rec.Format != planRecordFormat {
		return "", nil, fmt.Errorf("pipeline: plan record format %q, want %q", rec.Format, planRecordFormat)
	}
	if rec.Version < planRecordMinVersion || rec.Version > planRecordVersion {
		return "", nil, fmt.Errorf("pipeline: plan record version %d, want %d..%d",
			rec.Version, planRecordMinVersion, planRecordVersion)
	}
	if rec.Key == "" || rec.GraphHash == "" {
		return "", nil, errors.New("pipeline: plan record missing key")
	}
	full := rec.full
	if full == nil {
		return "", nil, errors.New("pipeline: decode plan record: missing schedule")
	}
	if got := PlanKey(rec.GraphHash, rec.Options, rec.Iterations); got != rec.Key {
		return "", nil, fmt.Errorf("pipeline: plan record key %q does not match its ingredients %q", rec.Key, got)
	}
	// The embedded schedule must actually be for the claimed graph: the
	// composed schedule always embeds the scheduled graph, so its
	// re-derived fingerprint matching GraphHash ties the record's payload
	// to its key, not just its header. A record whose schedule was edited
	// under an intact header fails here and gets quarantined upstream.
	if fp := full.Graph.Fingerprint(); fp != rec.GraphHash {
		return "", nil, fmt.Errorf("pipeline: plan record graph hashes to %s, header claims %s", fp, rec.GraphHash)
	}
	// The schedule's grain must agree with the keyed options (grain 0 and
	// 1 both mean "unchunked"): a mismatch means the record's placements
	// are in a different space than its key claims.
	wantGrain := rec.Options.Grain
	if wantGrain == 1 {
		wantGrain = 0
	}
	gotGrain := full.Grain
	if gotGrain == 1 {
		gotGrain = 0
	}
	if gotGrain != wantGrain {
		return "", nil, fmt.Errorf("pipeline: plan record schedule grain %d, options claim %d", full.Grain, rec.Options.Grain)
	}
	p = &Plan{
		GraphHash:  rec.GraphHash,
		Opts:       rec.Options,
		Iterations: rec.Iterations,
		Schedule: &core.LoopSchedule{
			Graph:          full.Graph,
			Opts:           rec.Options,
			Full:           full,
			Iterations:     rec.Iterations,
			CyclicProcs:    rec.CyclicProcs,
			FlowInProcs:    rec.FlowInProcs,
			FlowOutProcs:   rec.FlowOutProcs,
			Folded:         rec.Folded,
			GreedyFallback: rec.GreedyFallback,
		},
		Programs: rec.Programs,
		makespan: rec.Makespan,
		procs:    rec.Procs,
		rate:     rec.Rate,
		pattern:  rec.Pattern,
	}
	// Version-2 records carry one "measured" block; SetMeasured adopts
	// its empty Backend as "sim" — the only backend that existed then.
	if rec.Measured != nil {
		p.SetMeasured(rec.Measured)
	}
	for _, ms := range rec.MeasuredBy {
		if ms != nil {
			p.SetMeasured(ms)
		}
	}
	// Seed the memoized wire encoding with the record's own bytes, so a
	// disk-loaded plan serves byte-identical schedule JSON without ever
	// re-marshaling.
	p.schedJSONOnce.Do(func() { p.schedJSON = append([]byte(nil), rec.Schedule...) })
	return rec.Key, p, nil
}

// decode reads a plan record in one jsonscan pass. The envelope and the
// programs array — the bulk of a long record — are decoded by hand, the
// embedded schedule by plan.Schedule's own scanner (keeping its raw
// span as well), and the small options, pattern and measurement objects
// go through encoding/json on their spans. Keys are planRecord's json
// tags (program.Program and program.Instr carry no tags, so theirs are
// the Go field names), under the exact-key rule described above.
func (rec *planRecord) decode(data []byte) error {
	sc := jsonscan.New(data)
	err := sc.Object(func(key []byte) error {
		switch string(key) {
		case "format":
			return sc.String(&rec.Format)
		case "version":
			return jsonscan.Int(sc, &rec.Version)
		case "key":
			return sc.String(&rec.Key)
		case "graph_hash":
			return sc.String(&rec.GraphHash)
		case "options":
			return sc.JSON(&rec.Options)
		case "iterations":
			return jsonscan.Int(sc, &rec.Iterations)
		case "rate_cycles_per_iteration":
			return sc.Float64(&rec.Rate)
		case "procs":
			return jsonscan.Int(sc, &rec.Procs)
		case "makespan":
			return jsonscan.Int(sc, &rec.Makespan)
		case "cyclic_procs":
			return jsonscan.Int(sc, &rec.CyclicProcs)
		case "flow_in_procs":
			return jsonscan.Int(sc, &rec.FlowInProcs)
		case "flow_out_procs":
			return jsonscan.Int(sc, &rec.FlowOutProcs)
		case "folded":
			return sc.Bool(&rec.Folded)
		case "greedy_fallback":
			return sc.Bool(&rec.GreedyFallback)
		case "pattern":
			return sc.JSON(&rec.Pattern)
		case "measured":
			return sc.JSON(&rec.Measured)
		case "measured_by":
			return sc.JSON(&rec.MeasuredBy)
		case "schedule":
			full := new(plan.Schedule)
			raw, err := sc.Span(func() error { return full.ScanJSON(sc) })
			rec.Schedule, rec.full = raw, full
			return err
		case "programs":
			return jsonscan.Slice(sc, &rec.Programs, func(prog *program.Program) error {
				return sc.Object(func(key []byte) error {
					switch string(key) {
					case "Proc":
						return jsonscan.Int(sc, &prog.Proc)
					case "Instrs":
						return jsonscan.Slice(sc, &prog.Instrs, func(in *program.Instr) error {
							return sc.Object(func(key []byte) error {
								switch string(key) {
								case "Kind":
									return jsonscan.Int(sc, &in.Kind)
								case "Node":
									return jsonscan.Int(sc, &in.Node)
								case "Iter":
									return jsonscan.Int(sc, &in.Iter)
								case "Peer":
									return jsonscan.Int(sc, &in.Peer)
								case "Cost":
									return jsonscan.Int(sc, &in.Cost)
								}
								return sc.UnknownKey(key)
							})
						})
					}
					return sc.UnknownKey(key)
				})
			})
		}
		return sc.UnknownKey(key)
	})
	if err != nil {
		return err
	}
	return sc.End()
}
