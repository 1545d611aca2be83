// Package jsonscan is a small single-pass JSON reader for the plan-record
// and schedule wire formats, whose O(n) arrays (placements, graph edges,
// per-processor instruction streams) dominate decode time when read
// through encoding/json's reflection.
//
// Callers walk the document with typed reads (Object, Slice, Int,
// String, ...) that mirror the shape of the struct being filled. The
// reads accept a subset of what encoding/json accepts into the same
// fields and decode it to the same values:
//
//   - Object members must be spelled exactly as the caller names them;
//     the caller rejects any other key (UnknownKey), including keys that
//     differ only in case, which encoding/json would match, and keys that
//     encoding/json would ignore. Escaped or non-ASCII keys are rejected.
//   - A repeated key decodes again over the same destination, as in
//     encoding/json: the last scalar wins, and a repeated array decodes
//     its elements over the previous ones (Slice).
//   - null leaves a scalar or struct destination unchanged and sets a
//     slice to nil, as in encoding/json.
//   - Integers accept exactly the JSON numbers encoding/json accepts into
//     an integer field of the same width: no fraction, no exponent, no
//     overflow.
//
// Small nested values that are not worth hand-decoding go through
// encoding/json on their raw span (JSON), so their decoding stays
// encoding/json's own.
package jsonscan

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// maxDepth bounds nesting in skipped values, matching encoding/json.
const maxDepth = 10000

// Scanner reads one JSON document held in memory.
type Scanner struct {
	data []byte
	pos  int
}

// New returns a scanner positioned at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("jsonscan: offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) ws() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

func (s *Scanner) unexpected(want string) error {
	if s.pos >= len(s.data) {
		return s.errorf("unexpected end of input, want %s", want)
	}
	return s.errorf("unexpected character %q, want %s", s.data[s.pos], want)
}

// End checks that only whitespace follows the value just read.
func (s *Scanner) End() error {
	if s.ws() != 0 {
		return s.errorf("invalid character %q after top-level value", s.data[s.pos])
	}
	return nil
}

// null consumes a null literal if one comes next.
func (s *Scanner) null() bool {
	if s.ws() == 'n' && len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// Object reads a JSON object, calling member once per key with the
// scanner positioned at the member's value; member must consume that
// value. Keys are passed unescaped only when they need no unescaping
// (plain ASCII); any other key is an error.
func (s *Scanner) Object(member func(key []byte) error) error {
	return s.object(member, false)
}

// object is Object; with anyKey it also passes keys that are not plain,
// quoted and still escaped.
func (s *Scanner) object(member func(key []byte) error, anyKey bool) error {
	if s.ws() != '{' {
		return s.unexpected("object")
	}
	s.pos++
	if s.ws() == '}' {
		s.pos++
		return nil
	}
	for {
		if s.ws() != '"' {
			return s.unexpected("object key")
		}
		key, plain, err := s.str()
		if err != nil {
			return err
		}
		if !plain && !anyKey {
			return s.errorf("unsupported object key %s", key)
		}
		if s.ws() != ':' {
			return s.unexpected("':' after object key")
		}
		s.pos++
		if err := member(key); err != nil {
			return err
		}
		switch s.ws() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.unexpected("',' or '}' in object")
		}
	}
}

// UnknownKey is the error a member callback returns for a key it does
// not decode.
func (s *Scanner) UnknownKey(key []byte) error {
	return s.errorf("unknown field %q", key)
}

// array reads a JSON array, calling elem once per element with the
// scanner positioned at it; elem must consume the element.
func (s *Scanner) array(elem func() error) error {
	if s.ws() != '[' {
		return s.unexpected("array")
	}
	s.pos++
	if s.ws() == ']' {
		s.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.ws() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.unexpected("',' or ']' in array")
		}
	}
}

// Slice reads a JSON array into *dst with encoding/json's slice
// semantics: null sets nil, [] sets an empty non-nil slice, and elements
// decode in place over the slice's existing backing array (so a repeated
// key merges into the previous elements exactly as encoding/json does).
// A null element leaves its slot unchanged; any other element is passed
// to elem.
func Slice[T any](s *Scanner, dst *[]T, elem func(*T) error) error {
	if s.null() {
		*dst = nil
		return nil
	}
	v, n := *dst, 0
	err := s.array(func() error {
		if n < cap(v) {
			v = v[:n+1]
		} else {
			var zero T
			v = append(v[:n], zero)
		}
		n++
		if s.null() {
			return nil
		}
		return elem(&v[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*dst = []T{}
	} else {
		*dst = v[:n]
	}
	return nil
}

// Int reads a JSON integer into *dst; null leaves *dst unchanged.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](s *Scanner, dst *T) error {
	// Fast path: up to 18 digits (no int64 overflow) without a leading
	// zero, fraction or exponent, accumulated in the scanning loop.
	c := s.ws()
	i := s.pos
	if c == '-' {
		i++
	}
	if i < len(s.data) && '1' <= s.data[i] && s.data[i] <= '9' {
		var u int64
		j := i
		for ; j < len(s.data) && j-i < 18 && isDigit(s.data[j]); j++ {
			u = u*10 + int64(s.data[j]-'0')
		}
		if j == len(s.data) || !isNumberByte(s.data[j]) {
			if c == '-' {
				u = -u
			}
			if t := T(u); int64(t) == u {
				*dst, s.pos = t, j
				return nil
			}
		}
	}
	if s.null() {
		return nil
	}
	lit, isInt, err := s.number()
	if err != nil {
		return err
	}
	if !isInt {
		return s.errorf("number %s is not an integer", lit)
	}
	v, ok := parseInt(lit)
	if t := T(v); ok && int64(t) == v {
		*dst = t
		return nil
	}
	return s.errorf("number %s overflows its integer field", lit)
}

// parseInt converts a JSON integer literal, reporting int64 overflow.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range lit {
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// Float64 reads a JSON number into *dst; null leaves *dst unchanged.
func (s *Scanner) Float64(dst *float64) error {
	if s.null() {
		return nil
	}
	lit, _, err := s.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return s.errorf("number %s: %v", lit, err)
	}
	*dst = f
	return nil
}

// Bool reads a JSON boolean into *dst; null leaves *dst unchanged.
func (s *Scanner) Bool(dst *bool) error {
	if s.null() {
		return nil
	}
	for _, lit := range [...]string{"true", "false"} {
		if len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit {
			s.pos += len(lit)
			*dst = lit == "true"
			return nil
		}
	}
	return s.unexpected("boolean")
}

// String reads a JSON string into *dst; null leaves *dst unchanged.
// Strings that need unescaping or UTF-8 checking go through
// encoding/json, so they decode exactly as it would decode them.
func (s *Scanner) String(dst *string) error {
	if s.null() {
		return nil
	}
	if s.ws() != '"' {
		return s.unexpected("string")
	}
	raw, plain, err := s.str()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(raw)
		return nil
	}
	return json.Unmarshal(raw, dst)
}

// raw reads one JSON value of any kind, checking its syntax, and returns
// its bytes (a sub-slice of the scanned document).
func (s *Scanner) raw() ([]byte, error) {
	return s.Span(func() error { return s.skip(0) })
}

// Span runs read, which must consume exactly one value, and returns
// that value's bytes (a sub-slice of the scanned document).
func (s *Scanner) Span(read func() error) ([]byte, error) {
	s.ws()
	start := s.pos
	if err := read(); err != nil {
		return nil, err
	}
	return s.data[start:s.pos], nil
}

// JSON reads one value and decodes it into v with encoding/json: the
// path for small nested objects not worth hand-decoding.
func (s *Scanner) JSON(v any) error {
	raw, err := s.raw()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// str reads a string starting at the opening quote. A plain string
// (printable ASCII without escapes) is returned without its quotes; any
// other string is returned with them, syntax-checked, for
// encoding/json to unescape.
func (s *Scanner) str() (raw []byte, plain bool, err error) {
	for i := s.pos + 1; i < len(s.data); i++ {
		c := s.data[i]
		if c == '"' {
			raw, s.pos = s.data[s.pos+1:i], i+1
			return raw, true, nil
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			break
		}
	}
	return s.escapedStr()
}

// escapedStr is str for strings that are not plain.
func (s *Scanner) escapedStr() (raw []byte, plain bool, err error) {
	start := s.pos
	s.pos++
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.data[start:s.pos], false, nil
		case c < 0x20:
			return nil, false, s.errorf("invalid character %q in string literal", c)
		case c == '\\':
			s.pos++
			if s.pos >= len(s.data) {
				return nil, false, s.unexpected("escape")
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for k := 0; k < 4; k++ {
					if s.pos >= len(s.data) || !isHex(s.data[s.pos]) {
						return nil, false, s.unexpected("hex digit in \\u escape")
					}
					s.pos++
				}
			default:
				return nil, false, s.unexpected("escape character")
			}
		default:
			s.pos++
		}
	}
	return nil, false, s.unexpected("closing quote")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isNumberByte reports whether c can continue a number literal.
func isNumberByte(c byte) bool { return isDigit(c) || c == '.' || c == 'e' || c == 'E' }

// number reads a JSON number literal, reporting whether it is an
// integer (no fraction or exponent).
func (s *Scanner) number() (lit []byte, isInt bool, err error) {
	s.ws()
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(s.data) && s.data[s.pos] == '0':
		s.pos++
	case s.pos < len(s.data) && isDigit(s.data[s.pos]):
		for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
			s.pos++
		}
	default:
		return nil, false, s.unexpected("number")
	}
	isInt = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		isInt = false
		s.pos++
		if s.pos >= len(s.data) || !isDigit(s.data[s.pos]) {
			return nil, false, s.unexpected("digit after decimal point")
		}
		for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
			s.pos++
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		isInt = false
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if s.pos >= len(s.data) || !isDigit(s.data[s.pos]) {
			return nil, false, s.unexpected("digit in exponent")
		}
		for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
			s.pos++
		}
	}
	return s.data[start:s.pos], isInt, nil
}

// skip consumes one value of any kind, checking its syntax.
func (s *Scanner) skip(depth int) error {
	if depth > maxDepth {
		return s.errorf("exceeded max depth")
	}
	switch c := s.ws(); c {
	case '{':
		return s.object(func([]byte) error { return s.skip(depth + 1) }, true)
	case '[':
		return s.array(func() error { return s.skip(depth + 1) })
	case '"':
		_, _, err := s.str()
		return err
	case 't', 'f':
		var b bool
		return s.Bool(&b)
	case 'n':
		if !s.null() {
			return s.unexpected("null")
		}
		return nil
	default:
		_, _, err := s.number()
		return err
	}
}
