package jsonscan

import (
	"encoding/json"
	"reflect"
	"testing"
)

type item struct {
	A int    `json:"a"`
	B int8   `json:"b"`
	S string `json:"s"`
}

type doc struct {
	N     int            `json:"n"`
	F     float64        `json:"f"`
	T     bool           `json:"t"`
	S     string         `json:"s"`
	Items []item         `json:"items"`
	Sub   map[string]int `json:"sub"`
}

// scanDoc decodes a doc with the scanner, the way the codecs use it.
func scanDoc(data []byte) (doc, error) {
	var d doc
	sc := New(data)
	err := sc.Object(func(key []byte) error {
		switch string(key) {
		case "n":
			return Int(sc, &d.N)
		case "f":
			return sc.Float64(&d.F)
		case "t":
			return sc.Bool(&d.T)
		case "s":
			return sc.String(&d.S)
		case "sub":
			return sc.JSON(&d.Sub)
		case "items":
			return Slice(sc, &d.Items, func(it *item) error {
				return sc.Object(func(key []byte) error {
					switch string(key) {
					case "a":
						return Int(sc, &it.A)
					case "b":
						return Int(sc, &it.B)
					case "s":
						return sc.String(&it.S)
					}
					return sc.UnknownKey(key)
				})
			})
		}
		return sc.UnknownKey(key)
	})
	if err == nil {
		err = sc.End()
	}
	return d, err
}

// TestScannerMatchesEncodingJSON: inputs the scanner accepts decode
// exactly as encoding/json decodes them (repeated keys, nulls and
// in-place slice reuse included); the rest it rejects.
func TestScannerMatchesEncodingJSON(t *testing.T) {
	accept := []string{
		`{}`,
		` { "n" : -0 , "f" : 1.5e3 , "t" : true , "s" : "x" } `,
		`{"n":9223372036854775807,"f":-0,"t":false}`,
		`{"n":-9223372036854775808}`,
		`{"n":123456789012345678,"f":1E-2}`,
		`{"n":1,"n":2,"n":null}`,
		`{"s":"a\"b\\cé😀","t":null,"f":null}`,
		"{\"s\":\"caf\xc3\xa9 \xff\"}",
		`{"items":null}`,
		`{"items":[]}`,
		`{"items":[null,{"a":1},{}]}`,
		`{"items":[{"a":1,"b":-128,"s":"x"},{"a":2,"b":127}],"items":[{"b":5}]}`,
		`{"items":[{"a":1},{"a":2},{"a":3}],"items":[{"b":1}],"items":[{},{},{"s":"z"}]}`,
		`{"items":[{"a":1}],"items":[],"items":[{"b":2}]}`,
		`{"sub":{"x":1,"x":2},"sub":{"y":3}}`,
	}
	for _, in := range accept {
		got, err := scanDoc([]byte(in))
		if err != nil {
			t.Errorf("%s: scanner rejected: %v", in, err)
			continue
		}
		var want doc
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("%s: encoding/json rejected: %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scanner decoded %+v, encoding/json %+v", in, got, want)
		}
	}

	reject := []string{
		``, `null`, `[]`, `{`, `{"n":1`, `{"n":1,}`, `{"n":1}x`, `{"n":1}{}`,
		`{"N":1}`, `{"extra":1}`, `{"\u006e":1}`, "{\"n\xc3\xa9\":1}",
		`{"n":1.0}`, `{"n":1e2}`, `{"n":01}`, `{"n":-}`, `{"n":+1}`, `{"n":"1"}`, `{"n":true}`,
		`{"n":9223372036854775808}`, `{"n":-9223372036854775809}`, `{"n":99999999999999999999}`,
		`{"items":[{"b":128}]}`, `{"items":[{"b":-129}]}`, `{"items":[{"A":1}]}`, `{"items":[1]}`,
		`{"items":[{"a":1},]}`, `{"items":{}}`,
		`{"f":1.}`, `{"f":.5}`, `{"f":1e}`, `{"f":1e400}`, `{"f":NaN}`,
		`{"t":tru}`, `{"t":1}`, `{"s":nul}`, `{"s":"a\x"}`, "{\"s\":\"a\x01\"}", `{"s":"\u12"}`, `{"s":"abc`,
		`{"sub":{"x":}}`, `{"sub":[1,]}`, `{"sub":{"x":"y"}}`,
	}
	for _, in := range reject {
		if d, err := scanDoc([]byte(in)); err == nil {
			t.Errorf("%s: scanner accepted %+v", in, d)
		}
	}
}

// TestRawChecksSyntax: raw returns exactly one well-formed value.
func TestRawChecksSyntax(t *testing.T) {
	sc := New([]byte(` {"a":[1,-2.5e1,"x\"y",true,false,null,{}],"b":{}} ,`))
	raw, err := sc.raw()
	if err != nil || string(raw) != `{"a":[1,-2.5e1,"x\"y",true,false,null,{}],"b":{}}` {
		t.Fatalf("raw = %s, %v", raw, err)
	}
	for _, bad := range []string{`{"a" 1}`, `[1 2]`, `{"a":1,}`, `"\q"`, `tru`, `-`, `[`} {
		if raw, err := New([]byte(bad)).raw(); err == nil {
			t.Errorf("raw(%s) accepted %s", bad, raw)
		}
	}
	deep := make([]byte, 0, 2*maxDepth+4)
	for i := 0; i < maxDepth+2; i++ {
		deep = append(deep, '[')
	}
	if _, err := New(deep).raw(); err == nil {
		t.Error("raw accepted nesting beyond the depth limit")
	}
}
