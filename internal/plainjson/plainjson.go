// Package plainjson decodes the plain JSON this repository's service
// encoders write, without reflection, in one pass over the bytes.
//
// "Plain" is what json.Marshal produces for a flat struct schema: objects
// whose keys appear exactly once, in declaration order; strings with no
// escape sequence, no control character and valid UTF-8; numbers in JSON
// grammar that fit their field; null only where a slice is. A decoder
// written against this package reads its schema straight-line — Key,
// value, Key, value — and any byte that does not fit marks the Decoder
// failed, after which every call is a no-op. The caller then hands the
// body to encoding/json, which decodes or words the error, so a fast path
// built here never accepts what encoding/json would decode differently.
//
// Decoded strings never alias the body. A string found in the caller's
// frozen vocabulary resolves to the table's copy with no allocation;
// every other string is recorded and, once the whole value has parsed,
// copied into one arena shared by the value. The caller then walks its
// string fields in parse order with Fill to hand out the arena's pieces.
// Arrays of objects decode through caller-owned scratch and are copied
// once into an exact-size slice, so a value costs one allocation per
// non-empty slice plus one arena.
package plainjson

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/intern"
)

// unresolved stands in for a string that is waiting for the arena. A
// decoded string cannot equal it: plain strings hold no control bytes.
const unresolved = "\x00"

// Decoder holds the state of one decode. The zero value is ready for
// Reset; a Decoder may be reused, and pooled, across bodies.
type Decoder struct {
	buf    []byte
	pos    int
	failed bool
	// first is set by an opening bracket until the first element or key,
	// which is the one not preceded by a comma.
	first bool
	vocab *intern.Frozen[string]
	// spans are the strings the vocabulary did not know, in parse order,
	// as offsets into buf; size is their total length.
	spans  []span
	size   int
	arena  string
	filled int // index into spans of the next string Fill hands out
	off    int // offset into arena of that string
}

type span struct{ start, end int }

// Reset starts a decode of body. Strings found in vocab (which may be
// nil) resolve to the table's copy.
func (d *Decoder) Reset(body []byte, vocab *intern.Frozen[string]) {
	*d = Decoder{buf: body, vocab: vocab, spans: d.spans[:0]}
}

// Release drops the decoder's references to the last body and its arena,
// keeping only scratch capacity, so a pooled Decoder pins neither.
func (d *Decoder) Release() { d.Reset(nil, nil) }

func (d *Decoder) fail() { d.failed = true }

// skipSpace advances past JSON whitespace and reports whether a byte
// follows.
func (d *Decoder) skipSpace() bool {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\n', '\t', '\r':
			d.pos++
		default:
			return true
		}
	}
	return false
}

// expect consumes c, after optional whitespace, or fails.
func (d *Decoder) expect(c byte) {
	if d.failed {
		return
	}
	if !d.skipSpace() || d.buf[d.pos] != c {
		d.fail()
		return
	}
	d.pos++
}

// Open consumes an opening bracket, '{' or '['.
func (d *Decoder) Open(c byte) {
	d.expect(c)
	d.first = true
}

// Close consumes the closing '}' of an object whose keys have all been
// read.
func (d *Decoder) Close() {
	d.expect('}')
	d.first = false
}

// Key consumes the next object key, which must be name, and its colon:
// the comma before it unless it is the object's first key, then "name":.
func (d *Decoder) Key(name string) {
	if !d.first {
		d.expect(',')
	}
	d.first = false
	d.expect('"')
	if d.failed {
		return
	}
	end := d.pos + len(name)
	if end >= len(d.buf) || string(d.buf[d.pos:end]) != name || d.buf[end] != '"' {
		d.fail()
		return
	}
	d.pos = end + 1
	d.expect(':')
}

// OptionalKey consumes the key name if it comes next, for a field the
// encoder omits when empty; otherwise it consumes nothing and reports
// false.
func (d *Decoder) OptionalKey(name string) bool {
	if d.failed {
		return false
	}
	pos, first := d.pos, d.first
	d.Key(name)
	if d.failed {
		d.pos, d.first, d.failed = pos, first, false
		return false
	}
	return true
}

// next steps through an array: it consumes the comma between elements
// and reports whether another element follows, or consumes the closing
// ']' and reports false.
func (d *Decoder) next() bool {
	if d.failed || !d.skipSpace() {
		d.fail()
		return false
	}
	c := d.buf[d.pos]
	if c == ']' {
		d.pos++
		d.first = false
		return false
	}
	if !d.first {
		if c != ',' {
			d.fail()
			return false
		}
		d.pos++
	}
	d.first = false
	return true
}

// null consumes a null literal if one comes next.
func (d *Decoder) null() bool {
	if d.failed || !d.skipSpace() || !bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		return false
	}
	d.pos += len("null")
	return true
}

// Str decodes a string. A string the vocabulary knows comes back as the
// table's copy; any other non-empty string comes back unresolved until
// Fill.
func (d *Decoder) Str() string {
	d.expect('"')
	if d.failed {
		return ""
	}
	start := d.pos
	ascii := true
	for ; d.pos < len(d.buf); d.pos++ {
		c := d.buf[d.pos]
		if c == '"' {
			break
		}
		if c == '\\' || c < 0x20 {
			d.fail()
			return ""
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if d.pos == len(d.buf) {
		d.fail()
		return ""
	}
	b := d.buf[start:d.pos]
	d.pos++
	if !ascii && !utf8.Valid(b) {
		d.fail() // encoding/json substitutes U+FFFD; leave that to it
		return ""
	}
	if len(b) == 0 {
		return ""
	}
	if d.vocab != nil {
		if id, ok := intern.LookupBytes(d.vocab, b); ok {
			return d.vocab.Value(id)
		}
	}
	d.spans = append(d.spans, span{start, d.pos - 1})
	d.size += len(b)
	return unresolved
}

// number consumes a JSON number and returns its bytes and whether it has
// a fraction or an exponent.
func (d *Decoder) number() (b []byte, real bool) {
	if d.failed || !d.skipSpace() {
		d.fail()
		return nil, false
	}
	s, i := d.buf, d.pos
	if s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		i = digits(s, i)
	default:
		d.fail()
		return nil, false
	}
	if i < len(s) && s[i] == '.' {
		real = true
		if j := digits(s, i+1); j > i+1 {
			i = j
		} else {
			d.fail()
			return nil, false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		real = true
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if j := digits(s, i); j > i {
			i = j
		} else {
			d.fail()
			return nil, false
		}
	}
	b, d.pos = s[d.pos:i], i
	return b, real
}

func digits(s []byte, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// Int decodes a number into an int: no fraction, no exponent, in range.
func (d *Decoder) Int() int {
	b, real := d.number()
	if d.failed || real {
		d.fail()
		return 0
	}
	n, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
	if err != nil {
		d.fail()
		return 0
	}
	return int(n)
}

// Float decodes a number into a float64 exactly as encoding/json does.
func (d *Decoder) Float() float64 {
	b, _ := d.number()
	if d.failed {
		return 0
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		d.fail()
		return 0
	}
	return f
}

// List decodes an array of objects, or null, with elem decoding each
// element. Elements parse into *scratch, which keeps its capacity for the
// next decode; the result is an exact-size copy — nil for null, empty and
// non-nil for [].
func List[T any](d *Decoder, scratch *[]T, elem func(*Decoder, *T)) []T {
	if d.null() {
		return nil
	}
	d.Open('[')
	buf := (*scratch)[:0]
	var zero T
	for d.next() {
		buf = append(buf, zero)
		elem(d, &buf[len(buf)-1])
	}
	*scratch = buf
	if d.failed {
		return nil
	}
	out := make([]T, len(buf))
	copy(out, buf)
	return out
}

// Finish checks that nothing but whitespace follows the value and
// reports whether the whole body decoded. On success it copies the
// unresolved strings into one arena, which Fill then hands out.
func (d *Decoder) Finish() bool {
	if d.failed || d.skipSpace() {
		return false
	}
	if len(d.spans) > 0 {
		var b strings.Builder
		b.Grow(d.size)
		for _, s := range d.spans {
			b.Write(d.buf[s.start:s.end])
		}
		d.arena = b.String()
	}
	return true
}

// Fill resolves *s if Str left it unresolved. After Finish, the caller
// passes every string field it decoded, in the order it decoded them.
func (d *Decoder) Fill(s *string) {
	if *s != unresolved {
		return
	}
	sp := d.spans[d.filled]
	n := sp.end - sp.start
	*s = d.arena[d.off : d.off+n]
	d.filled++
	d.off += n
}
