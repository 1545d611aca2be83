package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mimdloop/internal/pipeline"
	"mimdloop/internal/workload"
)

// Serving caps every generated input stays under. They mirror the limits
// the server enforces on /v1/schedule, so a request the generator emits is
// never refused for its size; a refusal would still be counted as a failed
// operation, never dropped.
const (
	capNodes      = 512
	capLines      = 1024
	capBytes      = 64 << 10
	capIterations = 10_000
	capPlacements = 500_000
)

// commCost is k for every request: the serving default and the paper's
// Figure 7 setting.
const commCost = 2

// loopInput is one scheduling request the benchmark sends or replays.
type loopInput struct {
	Name   string
	Source string
	// Nodes is the dependence-graph size: the generator emits one
	// unguarded statement per node; a paper loop carries its compiled size.
	Nodes int
	Iters int
	Procs int
	Grain int
	// Shape names the family the input was drawn from: paper, small,
	// long, wide or chain.
	Shape string
}

// checkCaps rejects an input over any serving cap.
func (in loopInput) checkCaps() error {
	switch {
	case in.Nodes > capNodes:
		return fmt.Errorf("%s: %d nodes over the cap %d", in.Name, in.Nodes, capNodes)
	case strings.Count(in.Source, "\n") >= capLines:
		return fmt.Errorf("%s: %d lines over the cap %d", in.Name, strings.Count(in.Source, "\n"), capLines)
	case len(in.Source) > capBytes:
		return fmt.Errorf("%s: %d bytes over the cap %d", in.Name, len(in.Source), capBytes)
	case in.Iters < 1 || in.Iters > capIterations:
		return fmt.Errorf("%s: %d iterations outside [1, %d]", in.Name, in.Iters, capIterations)
	case in.Iters*in.Nodes > capPlacements:
		return fmt.Errorf("%s: %d placements over the cap %d", in.Name, in.Iters*in.Nodes, capPlacements)
	}
	return nil
}

// request is the input as a /v1/schedule (or /v1/batch item) request.
func (in loopInput) request() pipeline.ScheduleRequest {
	k := commCost
	return pipeline.ScheduleRequest{
		Source:     in.Source,
		CommCost:   &k,
		Processors: in.Procs,
		Iterations: in.Iters,
		Grain:      in.Grain,
	}
}

// body renders the input as a /v1/schedule request body.
func (in loopInput) body() []byte {
	b, err := json.Marshal(in.request())
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// randomLoop renders one loop of the paper's Section 4 recipe as source:
// stmts statements with latencies in [1, 3], stmts/2 simple (distance-0)
// dependences oriented from lower to higher statement index, and stmts/2
// loop-carried (distance-1) dependences between any two statements. Each
// statement also reads one external input and averages its operands, so
// values stay bounded over any iteration count and the value oracle
// compares finite numbers.
func randomLoop(rng *rand.Rand, name string, stmts int) string {
	type ref struct{ from, dist int }
	refs := make([][]ref, stmts)
	add := func(to int, r ref) {
		for _, have := range refs[to] {
			if have == r {
				return
			}
		}
		refs[to] = append(refs[to], r)
	}
	for e := 0; e < stmts/2; e++ {
		u := rng.Intn(stmts - 1)
		add(u+1+rng.Intn(stmts-u-1), ref{u, 0})
	}
	for e := 0; e < stmts/2; e++ {
		add(rng.Intn(stmts), ref{rng.Intn(stmts), 1})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %s {\n", name)
	for v := 0; v < stmts; v++ {
		fmt.Fprintf(&sb, "    v%d[i] = (x%d[i]", v, v%8)
		for _, r := range refs[v] {
			if r.dist == 0 {
				fmt.Fprintf(&sb, " + v%d[i]", r.from)
			} else {
				fmt.Fprintf(&sb, " + v%d[i-%d]", r.from, r.dist)
			}
		}
		fmt.Fprintf(&sb, ") / %d @lat(%d)\n", len(refs[v])+1, 1+rng.Intn(3))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// chainLoop renders the grain-friendly stream shape of workload.Streams as
// source: chains independent chains of perChain statements, each with a
// distance-1 self-recurrence and a distance-0 link to its predecessor.
func chainLoop(name string, chains, perChain int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %s {\n", name)
	for c := 0; c < chains; c++ {
		for s := 0; s < perChain; s++ {
			in := fmt.Sprintf("x%d[i]", c)
			if s > 0 {
				in = fmt.Sprintf("c%dn%d[i]", c, s-1)
			}
			fmt.Fprintf(&sb, "    c%dn%d[i] = (c%dn%d[i-1] + %s) / 2\n", c, s, c, s, in)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// paperLoop is one of the paper's loops, with its graph size.
type paperLoop struct {
	name, source string
	nodes        int
}

// paperLoops returns Figure 7, Livermore 18 and the elliptic filter.
func paperLoops() []paperLoop {
	return []paperLoop{
		{"fig7", workload.Figure7Source, workload.Figure7().Graph.N()},
		{"liv18", workload.Livermore18Source, workload.Livermore18().Graph.N()},
		{"elliptic", workload.EllipticSource, workload.Elliptic().Graph.N()},
	}
}

// coldLongPlacements is the placement count of every serve_cold long
// loop: its iterations are this divided by its statement count. Expand,
// validate, lower and encode cost in proportion to placements, so long
// loops of any width cost about the same, and the latency tail is not set
// by the few largest loops a run happens to draw.
const coldLongPlacements = 24_000

// longLoop renders a serve_cold long loop of 4–16 statements chosen by u
// in [0, 1), at coldLongPlacements placements: 1,500–6,000 iterations and
// a streamed reply of about 3.5 MB. Expand, validate, lower, encode and the
// streamed reply dominate its cost.
func longLoop(rng *rand.Rand, name string, u float64) loopInput {
	stmts := 4 + int(u*13)
	return loopInput{Name: name, Source: randomLoop(rng, name, stmts), Nodes: stmts, Iters: coldLongPlacements / stmts, Shape: "long"}
}

// wideLoop renders a serve_cold wide loop sized by u1, u2 in [0, 1):
// 256–384 statements, 8–32 iterations. Parse and Cyclic-sched dominate its
// cost. Parse time grows faster than the source (on a 2-vCPU x86 VM, about
// 55 ms at 256 statements, 145 ms at 384 and 210 ms at 512), so wider loops
// would put the latency tail on the few widest a run draws.
func wideLoop(rng *rand.Rand, name string, u1, u2 float64) loopInput {
	stmts := 256 + int(u1*129)
	return loopInput{Name: name, Source: randomLoop(rng, name, stmts), Nodes: stmts, Iters: 8 + int(u2*25), Shape: "wide"}
}

// splitmix derives independent stream seeds from (seed, index) so input i
// of a run is the same whichever client sends it.
func splitmix(seed int64, i uint64) int64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// stratified returns the m-th point of a two-dimensional additive
// low-discrepancy sequence. Sizes drawn from it cover their ranges evenly
// in every prefix of the request sequence, and they do not follow the
// seed: every run sends the same sizes in the same order, so the seed
// moves only the dependences and the revisited keys, and a run's cost
// depends far less on its seed and on how many requests it completed than
// with independent draws.
func stratified(m int) (float64, float64) {
	frac := func(x float64) float64 { return x - math.Floor(x) }
	return frac(float64(m)*0.6180339887498949 + 0.5), frac(float64(m)*0.41421356237309515 + 0.5)
}

// coldRevisitWindow is how many of the latest unseen keys of a shape a
// revisit chooses from. The window's keys stay in serve_cold's compile
// cache (see coldCompileEntries), so a revisit skips parsing as the
// workload intends, however long the run.
const coldRevisitWindow = 32

// coldInput is request i of the serve_cold sequence for seed. Every fourth
// request revisits an earlier unseen key, long and wide in turn, chosen
// uniformly among the latest coldRevisitWindow keys of that shape; the
// others are unseen keys alternating between long and wide loops, sized by
// the stratified sequence and drawn from the seed. revisit reports which.
func coldInput(seed int64, i int) (in loopInput, revisit bool) {
	rng := rand.New(rand.NewSource(splitmix(seed, uint64(i))))
	if i%4 == 3 {
		// Unseen key k (long when k is even) is request k + k/3; i/4 of
		// the requests before i are revisits, and n of the unseen keys
		// before i have this shape.
		shape := (i / 4) % 2
		unseen := i - i/4
		n := (unseen - shape + 1) / 2
		k := 2*(n-1-rng.Intn(min(n, coldRevisitWindow))) + shape
		in, _ := coldInput(seed, k+k/3)
		return in, true
	}
	k := i - i/4 // unseen keys before this one
	u1, u2 := stratified(k / 2)
	name := fmt.Sprintf("cold%d", i)
	if k%2 == 0 {
		return longLoop(rng, name, u1), false
	}
	return wideLoop(rng, name, u1, u2), false
}

// countSuiteSeed fixes the suite behind the count metrics
// (record_bytes_per_loop, plan_speedup): they describe the program, not
// the run, so the suite does not follow --seed.
const countSuiteSeed = 1

// countSuite is the fixed serve_cold-shaped suite the count metrics are
// computed over: four long and four wide loops.
func countSuite() []loopInput {
	rng := rand.New(rand.NewSource(countSuiteSeed))
	var out []loopInput
	for i := 0; i < 4; i++ {
		u1, u2 := stratified(i)
		out = append(out, longLoop(rng, fmt.Sprintf("suitelong%d", i), u1))
		out = append(out, wideLoop(rng, fmt.Sprintf("suitewide%d", i), u1, u2))
	}
	return out
}
