package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/loopir"
	"mimdloop/internal/machine"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/pipeline"
)

// execPlan is one lowered plan the execute and simulate workloads run,
// with the compiled loop that gives it semantics and its reference values.
type execPlan struct {
	in     loopInput
	c      *loopir.Compiled
	plan   *pipeline.Plan
	runner *mimdrt.Runner // execute only
	setup  time.Duration  // NewRunner / NewChunkedRunner wall time
	want   map[graph.InstanceID]float64
}

// execInputs returns the execute/simulate plan set for seed: the paper's
// loops at p=4, sixteen seeded Section 4 loops of 24 statements at p=2 and
// n=100, and a two-chain stream loop at grains 1, 4 and 8. The fixed plans
// have 10,000–17,000 instances each and carry three quarters of a round.
// The seeded loops are many and short because their cost per iteration,
// which depends on the dependence structure the seed draws, varies about
// twofold from loop to loop: eight loops at n=400 moved a round's time by
// a tenth from seed to seed.
func execInputs(seed int64) []loopInput {
	var out []loopInput
	for _, p := range paperLoops() {
		n := 500
		if p.nodes < 10 {
			n = 2000
		}
		out = append(out, loopInput{Name: p.name, Source: p.source, Nodes: p.nodes, Procs: 4, Iters: n, Shape: "paper"})
	}
	for i := 0; i < 16; i++ {
		rng := rand.New(rand.NewSource(splitmix(seed, uint64(i))))
		name := fmt.Sprintf("gen%d", i)
		out = append(out, loopInput{Name: name, Source: randomLoop(rng, name, 24), Nodes: 24, Procs: 2, Iters: 100, Shape: "small"})
	}
	for _, g := range []int{1, 4, 8} {
		name := fmt.Sprintf("chain_g%d", g)
		out = append(out, loopInput{Name: name, Source: chainLoop(name, 2, 4), Nodes: 8, Iters: 2000, Grain: g, Shape: "chain"})
	}
	return out
}

// buildExec builds every plan through one pipeline and, when withRunners
// is set, parks a mimdrt Runner per plan.
func buildExec(inputs []loopInput, withRunners bool) ([]*execPlan, error) {
	pipe := pipeline.New(pipeline.Config{})
	defer pipe.Close()
	var out []*execPlan
	for _, in := range inputs {
		if err := in.checkCaps(); err != nil {
			return nil, err
		}
		c, err := pipe.Compile(in.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		p, _, err := pipe.Schedule(c.Graph, core.Options{Processors: in.Procs, CommCost: commCost, Grain: in.Grain}, in.Iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		ep := &execPlan{in: in, c: c, plan: p}
		if withRunners {
			t0 := time.Now()
			if in.Grain > 1 {
				ep.runner = mimdrt.NewChunkedRunner(c.Graph, p.Programs, c, in.Grain, in.Iters)
			} else {
				ep.runner = mimdrt.NewRunner(c.Graph, p.Programs, c)
			}
			ep.setup = time.Since(t0)
		}
		out = append(out, ep)
	}
	return out, nil
}

func closeExec(plans []*execPlan) {
	for _, p := range plans {
		if p.runner != nil {
			p.runner.Close()
		}
	}
}

// checkEvery is how often (in rounds) an execute round's values are
// compared with the reference; the first round always is.
const checkEvery = 8

// runGort runs the plan once on its reused Runner, timing only the run;
// with check set, the values are then compared with the reference.
func (p *execPlan) runGort(rec *recorder, check bool) (time.Duration, error) {
	name := "mimdrt.run"
	if p.in.Grain > 1 {
		name = "mimdrt.run_chunked"
	}
	id := rec.begin(name, rec.newReq(), -1)
	t0 := time.Now()
	vals, err := p.runner.Run()
	d := time.Since(t0)
	rec.end(id, err == nil)
	if err != nil {
		return d, fmt.Errorf("%s: %w", p.in.Name, err)
	}
	if check {
		return d, sameValues(p.in.Name, vals, p.want)
	}
	return d, nil
}

// runSim runs the plan once on machine.Run without fluctuation. A
// self-timed run may finish before the static schedule but never after it.
func (p *execPlan) runSim(rec *recorder) (time.Duration, *machine.Stats, error) {
	id := rec.begin("machine.run", rec.newReq(), -1)
	t0 := time.Now()
	st, err := machine.Run(p.c.Graph, p.plan.Programs, machine.Config{Grain: p.in.Grain})
	d := time.Since(t0)
	rec.end(id, err == nil)
	if err != nil {
		return d, nil, fmt.Errorf("%s: %w", p.in.Name, err)
	}
	if st.Makespan > p.plan.Makespan() {
		return d, st, fmt.Errorf("%s: simulated makespan %d after the static %d", p.in.Name, st.Makespan, p.plan.Makespan())
	}
	return d, st, nil
}

// sameValues compares computed instance values with the reference to a
// relative 1e-9.
func sameValues(name string, got, want map[graph.InstanceID]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values computed, reference has %d", name, len(got), len(want))
	}
	for id, w := range want {
		v, ok := got[id]
		if !ok {
			return fmt.Errorf("%s: instance (%d, %d) not computed", name, id.Node, id.Iter)
		}
		if math.Abs(v-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("%s: instance (%d, %d) = %v, reference %v", name, id.Node, id.Iter, v, w)
		}
	}
	return nil
}
