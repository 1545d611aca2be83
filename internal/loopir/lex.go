// Package loopir is a miniature loop-language front end for the scheduler:
// it parses single-loop programs whose statements assign array elements with
// constant iteration offsets, analyzes flow dependences to build the data
// dependence graph the paper's algorithms consume, if-converts guarded
// assignments into data dependences [AlKe83], and interprets loops
// sequentially to provide ground truth for the parallel runtimes.
//
// Grammar (informal):
//
//	loop   := "loop" IDENT [ "(" "N" "=" INT ")" ] "{" stmt* "}"
//	stmt   := [ "if" "(" cond ")" ] IDENT "[" "i" "]" "=" expr [ "@lat" "(" INT ")" ]
//	cond   := expr relop expr            relop: < > <= >= == !=
//	expr   := term (("+"|"-") term)*
//	term   := factor (("*"|"/") factor)*
//	factor := NUMBER | IDENT | IDENT "[" "i" [ "-" INT ] "]" | "(" expr ")" | "-" factor
//
// An identifier with brackets is an array reference; without brackets it is
// a scalar loop-invariant parameter. Arrays assigned in the loop are
// computed; arrays only read are external inputs. Each array may be
// assigned at most once per iteration (single assignment), the standard
// restriction for dependence-distance analysis with constant offsets.
package loopir

import (
	"fmt"
	"strconv"
	"unicode"
)

type tokKind int8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct // single/double-char operator or delimiter, in text
)

type token struct {
	kind tokKind
	text string
	num  float64
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

// lex tokenizes the whole input up front in one linear pass.
func lex(src string) ([]token, error) {
	// Loop sources average two to three bytes per token; sizing for
	// that up front spares the token slice most of its regrowth.
	l := &lexer{src: src, line: 1, col: 1, toks: make([]token, 0, len(src)/3+1)}
	for {
		l.skipSpaceAndComments()
		// Every token is stamped with the position of its first byte,
		// taken from the running line/col, so lexing stays linear.
		line, col := l.line, l.col
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, text: ""}, line, col)
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case unicode.IsLetter(rune(c)) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
				l.advance()
			}
			l.emit(token{kind: tokIdent, text: l.src[start:l.pos]}, line, col)
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			start := l.pos
			seenDot := false
			for l.pos < len(l.src) {
				ch := l.src[l.pos]
				if ch == '.' && !seenDot {
					seenDot = true
					l.advance()
					continue
				}
				if !unicode.IsDigit(rune(ch)) {
					break
				}
				l.advance()
			}
			text := l.src[start:l.pos]
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("loopir: line %d: bad number %q", l.line, text)
			}
			l.emit(token{kind: tokNumber, text: text, num: f}, line, col)
		default:
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch two {
			case "<=", ">=", "==", "!=":
				l.advance()
				l.advance()
				l.emit(token{kind: tokPunct, text: two}, line, col)
				continue
			}
			switch c {
			case '=', '+', '-', '*', '/', '(', ')', '[', ']', '{', '}', '<', '>', '@', ',':
				l.advance()
				l.emit(token{kind: tokPunct, text: string(c)}, line, col)
			default:
				return nil, fmt.Errorf("loopir: line %d col %d: unexpected character %q", l.line, l.col, c)
			}
		}
	}
}

func isIdentChar(c byte) bool {
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_'
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			l.advance()
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
			continue
		}
		return
	}
}

func (l *lexer) advance() {
	if l.src[l.pos] == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	l.pos++
}

func (l *lexer) emit(t token, line, col int) {
	t.line = line
	t.col = col
	l.toks = append(l.toks, t)
}

func (t token) describe() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.text)
	case tokNumber:
		return fmt.Sprintf("number %s", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// renderOffset prints the [i-k] suffix of a reference.
func renderOffset(off int) string {
	if off == 0 {
		return "[i]"
	}
	return fmt.Sprintf("[i-%d]", off)
}
