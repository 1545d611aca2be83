package main

import (
	"crypto/sha256"
	"fmt"
	"math"

	"mimdloop/internal/core"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/program"
)

// countSummary holds the deterministic count metrics of one pass over the
// fixed suite. Two passes of the same program must agree exactly.
type countSummary struct {
	recordBytes float64 // mean EncodePlan size: the size of the generated code
	speedup     float64 // geomean of sequential cycles / plan makespan
	placements  float64 // mean placements per loop
	instrs      float64 // mean lowered instructions per loop
	messages    float64 // mean SEND instructions per loop
	digest      [sha256.Size]byte
}

// countPass builds every suite loop through an uncached pipeline and
// measures its plan record and lowered programs.
func countPass(suite []loopInput) (countSummary, error) {
	pipe := pipeline.New(pipeline.Config{DisableCache: true})
	defer pipe.Close()
	var s countSummary
	h := sha256.New()
	logSpeedup := 0.0
	for _, in := range suite {
		c, err := pipe.Compile(in.Source)
		if err != nil {
			return s, fmt.Errorf("%s: %w", in.Name, err)
		}
		p, _, err := pipe.Schedule(c.Graph, core.Options{Processors: in.Procs, CommCost: commCost, Grain: in.Grain}, in.Iters)
		if err != nil {
			return s, fmt.Errorf("%s: %w", in.Name, err)
		}
		rec, err := pipeline.EncodePlan(p)
		if err != nil {
			return s, fmt.Errorf("%s: %w", in.Name, err)
		}
		h.Write(rec)
		st := program.Summarize(p.Programs)
		s.recordBytes += float64(len(rec))
		logSpeedup += math.Log(float64(in.Iters*c.Graph.TotalLatency()) / float64(p.Makespan()))
		s.placements += float64(len(p.Schedule.Full.Placements))
		s.instrs += float64(st.Computes + st.Sends + st.Recvs)
		s.messages += float64(st.Sends)
	}
	n := float64(len(suite))
	s.recordBytes /= n
	s.speedup = math.Exp(logSpeedup / n)
	s.placements /= n
	s.instrs /= n
	s.messages /= n
	h.Sum(s.digest[:0])
	return s, nil
}

// countMetrics runs two passes over the fixed suite concurrently and
// returns the first with an error if the two differ in any count or in any
// record byte: the pipeline is deterministic, so a difference is a defect
// of the program, reported, never averaged away.
func countMetrics() (countSummary, error) {
	suite := countSuite()
	for _, in := range suite {
		if err := in.checkCaps(); err != nil {
			return countSummary{}, err
		}
	}
	type out struct {
		s   countSummary
		err error
	}
	second := make(chan out, 1)
	go func() {
		s, err := countPass(suite)
		second <- out{s, err}
	}()
	a, err := countPass(suite)
	b := <-second
	if err != nil {
		return a, err
	}
	if b.err != nil {
		return a, b.err
	}
	if a != b.s {
		return a, fmt.Errorf("count metrics differ between two passes over the same suite: %+v vs %+v", a, b.s)
	}
	return a, nil
}
