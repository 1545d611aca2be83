package loopir

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wideLoopSource renders a loop of stmts statements in the shape of the
// serving cold path's wide loops: each statement reads an input, a few
// same-iteration predecessors and a few previous-iteration values, and
// carries a latency annotation and a comment every eighth line.
func wideLoopSource(rng *rand.Rand, stmts int) string {
	var sb strings.Builder
	sb.WriteString("loop wide {\n")
	for v := 0; v < stmts; v++ {
		if v%8 == 0 {
			fmt.Fprintf(&sb, "    // block %d\n", v/8)
		}
		fmt.Fprintf(&sb, "    v%d[i] = (x%d[i]", v, v%8)
		refs := 1
		for r := 0; r < 2 && v > 0; r++ {
			fmt.Fprintf(&sb, " + v%d[i]", rng.Intn(v))
			refs++
		}
		fmt.Fprintf(&sb, " + v%d[i-1]", rng.Intn(stmts))
		refs++
		fmt.Fprintf(&sb, ") / %d @lat(%d)\n", refs, 1+rng.Intn(3))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TestLexTokenPositions pins the line/col stamped on tokens over a
// multi-line source with both comment styles and a tab, and the parse
// error messages built from them.
func TestLexTokenPositions(t *testing.T) {
	src := "// header comment\n" +
		"loop l(N = 4) {\n" +
		"  # hash comment\n" +
		"\tX[i] = X[i-1] + 2.5 // trailing\n" +
		"  Y[i] = X[i] >= 1\n" +
		"}\n"
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	type pos struct {
		text      string
		line, col int
	}
	want := []pos{
		{"loop", 2, 1}, {"l", 2, 6}, {"(", 2, 7}, {"N", 2, 8}, {"=", 2, 10}, {"4", 2, 12}, {")", 2, 13}, {"{", 2, 15},
		{"X", 4, 2}, {"[", 4, 3}, {"i", 4, 4}, {"]", 4, 5}, {"=", 4, 7}, {"X", 4, 9}, {"[", 4, 10}, {"i", 4, 11},
		{"-", 4, 12}, {"1", 4, 13}, {"]", 4, 14}, {"+", 4, 16}, {"2.5", 4, 18},
		{"Y", 5, 3}, {"[", 5, 4}, {"i", 5, 5}, {"]", 5, 6}, {"=", 5, 8}, {"X", 5, 10}, {"[", 5, 11}, {"i", 5, 12},
		{"]", 5, 13}, {">=", 5, 15}, {"1", 5, 18},
		{"}", 6, 1}, {"", 7, 1},
	}
	if len(toks) != len(want) {
		t.Fatalf("lexed %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if got := toks[i]; got.text != w.text || got.line != w.line || got.col != w.col {
			t.Errorf("token %d = %q at %d:%d, want %q at %d:%d", i, got.text, got.line, got.col, w.text, w.line, w.col)
		}
	}

	errCases := []struct{ src, want string }{
		{"// c\nloop l {\n  # c\n  X[i] = 1.0 @foo(1)\n}",
			`loopir: line 4 col 15: only "@lat(n)" annotations are supported`},
		{"# c\nloop l {\n  X[j] = 1.0\n}",
			`loopir: line 3 col 5: assignment target index must be "i"`},
		{"loop l {\n  // c\n  X[i] = 1.0 }\n\n  extra",
			`loopir: line 5 col 3: trailing input after loop body`},
		{"loop l {\n  # c\n\tX[i] = 1.0 ;\n}",
			`loopir: line 3 col 13: unexpected character ';'`},
	}
	for _, tc := range errCases {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error = %v, want %s", tc.src, err, tc.want)
		}
	}
}

// TestParseCostLinear pins the front end's linear cost: parse time per
// source byte on a ~60 KB loop (inside the server's 64 KiB and
// 1,024-line caps) stays within 3x of a ~4 KB loop. A lexer that
// rescans the source per token makes the ratio grow with the size
// ratio (about 15x here).
func TestParseCostLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rng := rand.New(rand.NewSource(1))
	small := wideLoopSource(rng, 60)
	large := wideLoopSource(rng, 900)
	if len(large) > 64<<10 || strings.Count(large, "\n") > 1024 {
		t.Fatalf("large source %d bytes, %d lines: outside the serving caps", len(large), strings.Count(large, "\n"))
	}
	if len(large) < 55_000 || len(small) > 5_000 {
		t.Fatalf("sources are %d and %d bytes, want ~60 KB and ~4 KB", len(large), len(small))
	}
	// Each trial parses about 1 MB of source after a forced collection;
	// the best of several interleaved trials discards scheduler and GC
	// interference from the rest of the machine.
	trial := func(src string) float64 {
		reps := 1 + (1<<20)/len(src)
		runtime.GC()
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(src))
	}
	s, l := math.Inf(1), math.Inf(1)
	for i := 0; i < 7; i++ {
		s = math.Min(s, trial(small))
		l = math.Min(l, trial(large))
	}
	t.Logf("parse: %.1f ns/B at %d B, %.1f ns/B at %d B", s, len(small), l, len(large))
	if l > 3*s {
		t.Fatalf("parse cost per byte grows with source size: %.1f ns/B at %d B vs %.1f ns/B at %d B",
			l, len(large), s, len(small))
	}
}

// BenchmarkParseWide parses a 384-statement loop, the widest shape the
// serving cold path sends.
func BenchmarkParseWide(b *testing.B) {
	src := wideLoopSource(rand.New(rand.NewSource(1)), 384)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
