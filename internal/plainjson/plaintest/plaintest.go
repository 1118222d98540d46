// Package plaintest builds values for the differential fuzz targets of
// plainjson decoders: a Gen turns fuzz bytes into strings, numbers and
// slice lengths, so that json.Marshal of the built value exercises the
// fast path on what the encoder really writes.
package plaintest

import (
	"encoding/binary"
	"math"
	"strings"
)

// Gen hands out fuzz input a piece at a time, zeros once it runs dry.
type Gen []byte

func (g *Gen) next() byte {
	if len(*g) == 0 {
		return 0
	}
	c := (*g)[0]
	*g = (*g)[1:]
	return c
}

func (g *Gen) take(n int) []byte {
	n = min(n, len(*g))
	out := (*g)[:n]
	*g = (*g)[n:]
	return out
}

func (g *Gen) u64() uint64 {
	var buf [8]byte
	copy(buf[:], g.take(8))
	return binary.LittleEndian.Uint64(buf[:])
}

// Str is raw bytes (which json.Marshal may escape), one of known (so the
// decoder's vocabulary is exercised), or plain letters, with some
// non-ASCII, that no vocabulary holds.
func (g *Gen) Str(known []string) string {
	c := g.next()
	n := int(c>>2) % 16
	switch c & 3 {
	case 0:
		return string(g.take(n))
	case 1:
		if len(known) > 0 {
			return known[n%len(known)]
		}
	}
	const letters = "abcdefghijklmnopqrstuvwxyz:/ -"
	var b strings.Builder
	for _, x := range g.take(n) {
		if i := int(x) % 32; i < len(letters) {
			b.WriteByte(letters[i])
		} else {
			b.WriteString("é")
		}
	}
	return b.String()
}

// Float is any finite float64, so every formatting json.Marshal uses,
// exponents included, comes up.
func (g *Gen) Float() float64 {
	f := math.Float64frombits(g.u64())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// Int is any int.
func (g *Gen) Int() int { return int(int64(g.u64())) }

// Slice is nil, empty, or up to three elements built by elem.
func Slice[T any](g *Gen, elem func(*Gen) T) []T {
	c := g.next()
	if c&7 == 7 {
		return nil
	}
	out := make([]T, c&3)
	for i := range out {
		out[i] = elem(g)
	}
	return out
}
