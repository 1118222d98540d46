package service

import (
	"bytes"
	"encoding/binary"
	"maps"
	"strconv"
	"strings"
	"testing"

	"repro/internal/raceflag"
)

// TestCacheKeyDistinguishesFieldBoundaries: when fields were joined by
// NUL bytes, a NUL inside a field could move a boundary, and the facade
// accepts "\u0000" in JSON — one caller could be served another's answer.
func TestCacheKeyDistinguishesFieldBoundaries(t *testing.T) {
	for _, pair := range [][2]Request{
		{{Op: "search", Query: "x\x00"}, {Op: "search", Query: "x", Text: "\x00"}},
		{{Op: "put", Data: []byte("\x00limit\x0110")}, {Op: "put", Params: map[string]string{"limit": "10"}}},
		{{Op: "ab", Key: "c"}, {Op: "a", Key: "bc"}},
		{{Params: map[string]string{"a": "b\x00c\x01d"}}, {Params: map[string]string{"a": "b", "c": "d"}}},
	} {
		if a, b := pair[0].CacheKey(""), pair[1].CacheKey(""); a == b {
			t.Errorf("%+v and %+v share the key %s", pair[0], pair[1], a)
		}
	}
}

func TestCacheKeyPrefix(t *testing.T) {
	r := Request{Op: "analyze", Text: "hello"}
	bare := r.CacheKey("")
	if len(bare) != 32 {
		t.Fatalf("key %q is %d bytes, want 32 hex digits", bare, len(bare))
	}
	if got := r.CacheKey("svc:nlu:"); got != "svc:nlu:"+bare {
		t.Errorf("CacheKey(prefix) = %q, want the prefix and then %q", got, bare)
	}
	// A document larger than the pooled scratch cap keys like any other.
	big := Request{Op: "analyze", Text: strings.Repeat("x", maxPooledKeyScratch+1)}
	if big.CacheKey("") != big.CacheKey("") || big.CacheKey("") == bare {
		t.Error("a key past the scratch cap is not a pure function of the request")
	}
}

// TestCacheKeyAllocs: the key is the only allocation, params or not.
func TestCacheKeyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, r := range []Request{
		{Op: "analyze", Text: strings.Repeat("Acme grew. ", 200)},
		{Op: "search", Query: "market growth", Params: map[string]string{"limit": "10", "expand": "true", "news": "true"}},
	} {
		r.CacheKey("svc:x:")
		if got := testing.AllocsPerRun(100, func() { r.CacheKey("svc:x:") }); got != 1 {
			t.Errorf("CacheKey(%s) allocates %v times, want 1", r.Op, got)
		}
	}
}

// fuzzRequest decodes one request from the front of data: five length-
// prefixed fields, a param count and that many key/value pairs, every
// length one byte. It returns the request and what it did not consume.
func fuzzRequest(data []byte) (Request, []byte) {
	next := func() string {
		if len(data) == 0 {
			return ""
		}
		n := min(int(data[0]), len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s
	}
	var r Request
	r.Op, r.Key, r.Query, r.Text = next(), next(), next(), next()
	if d := next(); d != "" {
		r.Data = []byte(d)
	}
	if len(data) > 0 {
		n := int(data[0] % 5)
		data = data[1:]
		for i := 0; i < n; i++ {
			if r.Params == nil {
				r.Params = map[string]string{}
			}
			k := next()
			r.Params[k] = next()
		}
	}
	return r, data
}

// sameRequest is request equality as a cache sees it: nil and empty Data
// or Params are the same argument.
func sameRequest(a, b Request) bool {
	return a.Op == b.Op && a.Key == b.Key && a.Query == b.Query && a.Text == b.Text &&
		bytes.Equal(a.Data, b.Data) && maps.Equal(a.Params, b.Params)
}

// FuzzCacheKey: two requests decoded from the input encode to the same
// bytes exactly when they are equal, and equal requests share a key.
func FuzzCacheKey(f *testing.F) {
	f.Add([]byte("\x06search\x00\x00\x02x\x00\x00\x00\x00\x06search\x00\x00\x01x\x01\x00\x00\x00"))
	f.Add([]byte("\x03put\x00\x00\x00\x09\x00limit\x0110\x00\x03put\x00\x00\x00\x00\x01\x05limit\x0210"))
	f.Add([]byte("\x01a\x01b\x01c\x01d\x01e\x02\x01k\x01v\x01j\x01w\x01a\x01b\x01c\x01d\x01e\x02\x01j\x01w\x01k\x01v"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := fuzzRequest(data)
		b, _ := fuzzRequest(rest)
		ea, eb := a.appendKeyEncoding(nil), b.appendKeyEncoding(nil)
		if same := sameRequest(a, b); same != bytes.Equal(ea, eb) {
			t.Fatalf("requests equal: %v, encodings equal: %v\na = %+v\nb = %+v", same, !same, a, b)
		} else if same && a.CacheKey("p:") != b.CacheKey("p:") {
			t.Fatalf("equal requests %+v and %+v have different keys", a, b)
		}
		// The encoding is the fields, length-prefixed, in order.
		want := binary.AppendUvarint(nil, uint64(len(a.Op)))
		if !bytes.HasPrefix(ea, append(want, a.Op...)) {
			t.Fatalf("encoding of %+v does not open with Op", a)
		}
	})
}

var keySink string

func BenchmarkCacheKey(b *testing.B) {
	for _, size := range []int{64, 2048, 16384} {
		r := Request{Op: "analyze", Text: strings.Repeat("x", size)}
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = r.CacheKey("svc:nlu-alpha:")
			}
		})
	}
}
