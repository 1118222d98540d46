package future

import "testing"

func BenchmarkFutureCompleteGet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := newFuture[int]()
		f.complete(i)
		if v, err := f.Get(); err != nil || v != i {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkPoolSubmit(b *testing.B) {
	p, err := NewPool(4, 256)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := Submit(p, func() (int, error) { return 1, nil })
		if _, err := f.Get(); err != nil {
			b.Fatal(err)
		}
	}
}
