package plainjson

import (
	"encoding/json"
	"math"
	"testing"
)

// decodePair decodes {"i":<int>,"f":<float>} and reports whether the
// decoder accepted it.
func decodePair(body string) (i int, f float64, ok bool) {
	var d Decoder
	d.Reset([]byte(body), nil)
	d.Open('{')
	d.Key("i")
	i = d.Int()
	d.Key("f")
	f = d.Float()
	d.Close()
	return i, f, d.Finish()
}

// Numbers: the decoder accepts exactly the JSON grammar, and only values
// encoding/json decodes without error into the same field types.
func TestNumbersMatchEncodingJSON(t *testing.T) {
	for _, num := range []string{
		"0", "-0", "7", "-42", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "01", "-", "+1", "1.", ".5", "1.0", "1e2", "1E+2",
		"0.1", "-0.0", "2.5e-9", "1e400", "1e-400", "1.7976931348623157e308",
		"0x10", "1_000", "Infinity", "NaN", "1e", "1e+", "--1", "00",
	} {
		for _, body := range []string{
			`{"i":` + num + `,"f":0}`,
			`{"i":0,"f":` + num + `}`,
		} {
			var want struct {
				I int     `json:"i"`
				F float64 `json:"f"`
			}
			wantErr := json.Unmarshal([]byte(body), &want)
			i, f, ok := decodePair(body)
			if ok && wantErr != nil {
				t.Errorf("%s: accepted, encoding/json says %v", body, wantErr)
			}
			if !ok && wantErr == nil {
				t.Errorf("%s: declined a number encoding/json decodes", body)
			}
			if ok && (i != want.I || math.Float64bits(f) != math.Float64bits(want.F)) {
				t.Errorf("%s: decoded (%d, %v), encoding/json (%d, %v)", body, i, f, want.I, want.F)
			}
		}
	}
}

// Fill hands the arena out in the order Str met the strings, and nothing
// the decoder returns aliases the body.
func TestFillResolvesInParseOrder(t *testing.T) {
	body := []byte(`{"a":"first","b":"","c":"third"}`)
	var d Decoder
	d.Reset(body, nil)
	d.Open('{')
	d.Key("a")
	a := d.Str()
	d.Key("b")
	b := d.Str()
	d.Key("c")
	c := d.Str()
	d.Close()
	if !d.Finish() {
		t.Fatal("declined a plain object")
	}
	d.Fill(&a)
	d.Fill(&b)
	d.Fill(&c)
	for i := range body {
		body[i] = 'x'
	}
	if a != "first" || b != "" || c != "third" {
		t.Fatalf("got %q %q %q", a, b, c)
	}
}
