package codec

import (
	"strings"
	"testing"
)

var benchPayload = []byte(strings.Repeat("knowledge base statement about markets. ", 256))

func benchCodec(b *testing.B, c Codec) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	for i := 0; i < b.N; i++ {
		enc, err := c.Encode(benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGzipRoundTrip(b *testing.B) { benchCodec(b, Gzip{}) }

func BenchmarkAESGCMRoundTrip(b *testing.B) {
	c, err := NewAESGCM("bench key")
	if err != nil {
		b.Fatal(err)
	}
	benchCodec(b, c)
}

func BenchmarkChainGzipAESRoundTrip(b *testing.B) {
	enc, err := NewAESGCM("bench key")
	if err != nil {
		b.Fatal(err)
	}
	benchCodec(b, Chain{Gzip{}, enc})
}

var encodeSink []byte

// BenchmarkChainEncode is the store's write path through Chain{Gzip, AESGCM}
// at three value sizes, from one goroutine and from GOMAXPROCS at once (the
// pools are per-P, so the parallel legs show whether callers share state).
func BenchmarkChainEncode(b *testing.B) {
	enc, err := NewAESGCM("bench key")
	if err != nil {
		b.Fatal(err)
	}
	chain := Chain{Gzip{}, enc}
	for _, size := range []struct {
		name string
		n    int
	}{{"1KB", 1 << 10}, {"8KB", 8 << 10}, {"64KB", 64 << 10}} {
		value := storeValue(size.n)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(value)))
			for i := 0; i < b.N; i++ {
				out, err := chain.Encode(value)
				if err != nil {
					b.Fatal(err)
				}
				encodeSink = out
			}
		})
		b.Run(size.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(value)))
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := chain.Encode(value); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
