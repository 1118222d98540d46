package codec

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/raceflag"
)

// The tests in this file pin what pooling the compressor state must not
// change: the bytes produced, the independence of every returned slice from
// every later call, and the checks the unpooled code made. None of them reads
// a clock.

// storeValue is text shaped like what the store sends through the chain:
// compressible to about a quarter.
func storeValue(n int) []byte {
	var b strings.Builder
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, "run-%d: the %s market %s after entity-%d reported results. ",
			i, []string{"german", "energy", "retail"}[i%3], []string{"improved", "fell", "held"}[i%5%3], i*7%62)
	}
	return []byte(b.String()[:n])
}

func testChain(t testing.TB) Chain {
	t.Helper()
	enc, err := NewAESGCM("pool test key")
	if err != nil {
		t.Fatal(err)
	}
	return Chain{Gzip{}, enc}
}

// fuzzValues cuts data into at most 16 values of mixed sizes. Each step
// reads a two-byte header — size class in the low two bits of the first
// byte, pattern length (1 to 8) in the next three, a length in the second —
// and fills the value by cycling over the pattern bytes that follow, so a
// twenty-byte input can put a 70 KB value next to an empty one and a short
// one: the sequence in which a reused buffer would leak the longer value's
// tail into the shorter.
func fuzzValues(data []byte) [][]byte {
	var vals [][]byte
	for len(data) >= 2 && len(vals) < 16 {
		n := int(data[1])
		switch data[0] & 3 {
		case 1:
			n *= 16
		case 2:
			n *= 280
		case 3:
			n = 0
		}
		pattern := data[2:min(2+1+int(data[0]>>2&7), len(data))]
		data = data[2+len(pattern):]
		v := make([]byte, n)
		if len(pattern) > 0 {
			for i := range v {
				v[i] = pattern[i%len(pattern)]
			}
		}
		vals = append(vals, v)
	}
	return vals
}

// kept is a slice some call returned, held unmodified while later calls run,
// and a copy taken at the moment it was returned.
type kept struct {
	what     string
	returned []byte
	snapshot []byte
}

func keep(what string, b []byte) kept {
	return kept{what: what, returned: b, snapshot: bytes.Clone(b)}
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xAA
	}
}

func FuzzChainRoundTrip(f *testing.F) {
	// The committed corpus under testdata/fuzz adds longer sequences.
	f.Add([]byte("\x1e\xffmarkets \x00\x03a\x03\x00\x0d\x20rose"))
	f.Add([]byte("\x00\x00"))
	chain := testChain(f)
	gz := Gzip{}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzValues(data)
		var held []kept
		for i, v := range vals {
			enc, err := chain.Encode(v)
			if err != nil {
				t.Fatalf("value %d: Encode: %v", i, err)
			}
			again, err := chain.Encode(v)
			if err != nil {
				t.Fatalf("value %d: second Encode: %v", i, err)
			}
			if bytes.Equal(enc, again) {
				t.Fatalf("value %d: two encodes of one value are equal (nonce reused)", i)
			}
			dec, err := chain.Decode(enc)
			if err != nil {
				t.Fatalf("value %d: Decode: %v", i, err)
			}
			if !bytes.Equal(dec, v) {
				t.Fatalf("value %d (%d bytes): decode returned %d bytes that differ from the input", i, len(v), len(dec))
			}
			zipped, err := gz.Encode(v)
			if err != nil {
				t.Fatalf("value %d: Gzip.Encode: %v", i, err)
			}
			held = append(held, keep("ciphertext", enc), keep("plaintext", dec), keep("gzip output", zipped))

			// One flipped byte anywhere — the nonce, the body, the tag —
			// must fail authentication. The input chooses where.
			for _, at := range []int{0, len(enc) - 1, (int(data[0])<<8 | int(data[1])) * (i + 1) % len(enc)} {
				bad := bytes.Clone(enc)
				bad[at] ^= 0x01
				if _, err := chain.Decode(bad); err == nil {
					t.Fatalf("value %d: ciphertext with byte %d flipped decoded", i, at)
				}
			}

			// Overwriting slices a call returned must not reach anything a
			// later call uses.
			againDec, err := chain.Decode(again)
			if err != nil || !bytes.Equal(againDec, v) {
				t.Fatalf("value %d: second ciphertext did not decode to the input (err %v)", i, err)
			}
			scribble(again)
			scribble(againDec)
		}
		// One more encode and decode, so the last value's slices have later
		// calls behind them too.
		after, err := chain.Encode([]byte("after"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain.Decode(after); err != nil {
			t.Fatal(err)
		}
		for _, k := range held {
			if !bytes.Equal(k.returned, k.snapshot) {
				t.Fatalf("%s of %d bytes changed after it was returned", k.what, len(k.snapshot))
			}
		}
		for i, v := range vals {
			dec, err := chain.Decode(held[3*i].returned)
			if err != nil || !bytes.Equal(dec, v) {
				t.Fatalf("value %d: ciphertext kept across the sequence no longer decodes to its input (err %v)", i, err)
			}
			unzipped, err := gz.Decode(held[3*i+2].returned)
			if err != nil || !bytes.Equal(unzipped, v) {
				t.Fatalf("value %d: gzip output kept across the sequence no longer decodes to its input (err %v)", i, err)
			}
		}
	})
}

// A reused compressor must write what a new one writes at the default
// level.
func TestGzipMatchesDirectWriter(t *testing.T) {
	inputs := [][]byte{nil, []byte("x"), storeValue(700), storeValue(8 << 10), storeValue(70 << 10)}
	// Two passes, so the second runs on state the first left behind.
	for pass := 0; pass < 2; pass++ {
		for _, in := range inputs {
			var direct bytes.Buffer
			w, err := gzip.NewWriterLevel(&direct, gzip.DefaultCompression)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(in); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Gzip{}.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, direct.Bytes()) {
				t.Fatalf("pass %d, %d-byte input: output differs from a direct gzip.NewWriterLevel run", pass, len(in))
			}
			if cap(got) != len(got) {
				t.Errorf("returned slice has cap %d over len %d", cap(got), len(got))
			}
		}
	}
}

// A failed Decode must leave the pool in a state the next Decode can use.
func TestGzipDecodeAfterFailure(t *testing.T) {
	good, err := Gzip{}.Encode(storeValue(4 << 10))
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range [][]byte{nil, []byte("definitely not gzip"), good[:len(good)/2], good[:len(good)-1]} {
		if _, err := (Gzip{}).Decode(bad); err == nil {
			t.Errorf("input %d: expected an error", i)
		}
		got, err := Gzip{}.Decode(good)
		if err != nil || !bytes.Equal(got, storeValue(4<<10)) {
			t.Fatalf("decode after failed input %d: err %v", i, err)
		}
	}
}

// The stored format did not change: a blob the parent commit's
// Chain{Gzip{}, AESGCM} wrote still decodes.
func TestDecodeParentCommitBlob(t *testing.T) {
	blob, err := os.ReadFile("testdata/chain_gzip_aesgcm_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewAESGCM("parent commit passphrase")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Chain{Gzip{}, enc}.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("the personalized knowledge base stores facts about markets. ", 40)
	if string(got) != want {
		t.Errorf("decoded %d bytes that differ from what the parent commit encoded", len(got))
	}
}

func TestCodecConcurrent(t *testing.T) {
	chain := testChain(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := Codec(chain)
			if g%2 == 1 {
				c = Gzip{}
			}
			for i := 0; i < 60; i++ {
				v := storeValue((g*131 + i*977) % (20 << 10))
				enc, err := c.Encode(v)
				if err != nil {
					t.Errorf("goroutine %d: Encode: %v", g, err)
					return
				}
				dec, err := c.Decode(enc)
				if err != nil {
					t.Errorf("goroutine %d: Decode: %v", g, err)
					return
				}
				if !bytes.Equal(dec, v) {
					t.Errorf("goroutine %d: %d-byte value came back different", g, len(v))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// After warm-up an encode allocates its two results (the compressed value
// and the sealed one) and nothing that scales with the compressor.
func TestChainEncodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	chain := testChain(t)
	value := storeValue(8 << 10)
	encode := func() {
		if _, err := chain.Encode(value); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if n := testing.AllocsPerRun(100, encode); n > 4 {
		t.Errorf("Chain.Encode of 8 KB: %.1f allocs per call, want <= 4", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		encode()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per >= 64<<10 {
		t.Errorf("Chain.Encode of 8 KB: %d bytes allocated per call, want < 64 KB", per)
	}
}

// An oversized value's scratch is not kept: the next small encode starts
// from a buffer the size it needs.
func TestScratchAboveCapNotPooled(t *testing.T) {
	// Incompressible, so the compressed scratch exceeds the cap as well.
	big := make([]byte, 3*maxPooledScratch)
	x := uint32(1)
	for i := range big {
		x = x*1664525 + 1013904223
		big[i] = byte(x >> 24)
	}
	g := Gzip{}
	enc, err := g.Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if e, ok := gzippers.Get().(*gzipper); ok && e.buf.Cap() > maxPooledScratch {
		t.Errorf("pooled compressor kept %d bytes of scratch", e.buf.Cap())
	}
	if d, ok := gunzippers.Get().(*gunzipper); ok && d.buf.Cap() > maxPooledScratch {
		t.Errorf("pooled decompressor kept %d bytes of scratch", d.buf.Cap())
	}
}
