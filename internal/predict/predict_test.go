package predict

import (
	"fmt"
	"testing"
	"time"
)

func ms(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

func TestPredictLinearSizeLatency(t *testing.T) {
	// Latency = 5ms + 0.01ms per KB, as the paper's storage example:
	// time to store an object grows with its size.
	p := New(Config{MinObservations: 4})
	for kb := 1.0; kb <= 64; kb *= 2 {
		p.Observe([]float64{kb}, ms(5+0.01*kb))
	}
	got, err := p.Predict([]float64{1000}, nil)
	if err != nil {
		t.Fatalf("Predict error = %v", err)
	}
	want := ms(15)
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("Predict(1000KB) = %v, want ~%v", got, want)
	}
}

func TestPredictCrossover(t *testing.T) {
	// Paper §2: s1 lowest latency for small objects, s2 for large.
	// s1: 1ms + 0.02ms/KB; s2: 10ms + 0.001ms/KB. Crossover ~474KB.
	s1 := New(Config{MinObservations: 4})
	s2 := New(Config{MinObservations: 4})
	for kb := 10.0; kb <= 10240; kb *= 2 {
		s1.Observe([]float64{kb}, ms(1+0.02*kb))
		s2.Observe([]float64{kb}, ms(10+0.001*kb))
	}
	small := []float64{100}
	large := []float64{4096}
	p1s, _ := s1.Predict(small, nil)
	p2s, _ := s2.Predict(small, nil)
	if p1s >= p2s {
		t.Errorf("small object: s1 (%v) should beat s2 (%v)", p1s, p2s)
	}
	p1l, _ := s1.Predict(large, nil)
	p2l, _ := s2.Predict(large, nil)
	if p2l >= p1l {
		t.Errorf("large object: s2 (%v) should beat s1 (%v)", p2l, p1l)
	}
}

func TestPredictNoDataPolicies(t *testing.T) {
	peers := []float64{10, 20, 90}
	tests := []struct {
		name    string
		cfg     Config
		peers   []float64
		want    time.Duration
		wantErr bool
	}{
		{"none fails", Config{Policy: defaultNone}, peers, 0, true},
		{"peer average", Config{Policy: DefaultPeerAverage}, peers, ms(40), false},
		{"peer median", Config{Policy: defaultPeerMedian}, peers, ms(20), false},
		{"user default", Config{Policy: defaultUser, UserDefault: ms(33)}, nil, ms(33), false},
		{"peer average without peers fails", Config{Policy: DefaultPeerAverage}, nil, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := New(tt.cfg)
			got, err := p.Predict([]float64{1}, tt.peers)
			if tt.wantErr {
				if err == nil {
					t.Errorf("expected error, got %v", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Predict error = %v", err)
			}
			if got != tt.want {
				t.Errorf("Predict = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPredictOwnMeanBeforeModel(t *testing.T) {
	// With data but below MinObservations, predict the own mean rather
	// than falling back to peers.
	p := New(Config{MinObservations: 10, Policy: DefaultPeerAverage})
	p.Observe([]float64{1}, ms(100))
	p.Observe([]float64{2}, ms(200))
	got, err := p.Predict([]float64{1}, []float64{1})
	if err != nil {
		t.Fatalf("Predict error = %v", err)
	}
	if got != ms(150) {
		t.Errorf("Predict = %v, want 150ms (own mean)", got)
	}
}

func TestPredictKNNFallbackOnDegenerateParams(t *testing.T) {
	// All observations share the same parameter value, so regression on
	// it is singular; k-NN should still produce the local mean.
	p := New(Config{MinObservations: 3})
	for i := 0; i < 6; i++ {
		p.Observe([]float64{5}, ms(40))
	}
	got, err := p.Predict([]float64{5}, nil)
	if err != nil {
		t.Fatalf("Predict error = %v", err)
	}
	if got != ms(40) {
		t.Errorf("Predict = %v, want 40ms", got)
	}
}

func TestPredictMultiParam(t *testing.T) {
	// Latency depends on two parameters: size and replication factor.
	p := New(Config{MinObservations: 6})
	for size := 1.0; size <= 8; size++ {
		for rep := 1.0; rep <= 3; rep++ {
			p.Observe([]float64{size, rep}, ms(2*size+5*rep))
		}
	}
	got, err := p.Predict([]float64{10, 2}, nil)
	if err != nil {
		t.Fatalf("Predict error = %v", err)
	}
	want := ms(30)
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("Predict = %v, want ~%v", got, want)
	}
}

func TestPredictRaggedParamsPadded(t *testing.T) {
	p := New(Config{MinObservations: 4})
	p.Observe([]float64{1}, ms(10))
	p.Observe([]float64{2, 1}, ms(20))
	p.Observe([]float64{3}, ms(30))
	p.Observe([]float64{4, 2}, ms(40))
	p.Observe([]float64{5, 1}, ms(50))
	if _, err := p.Predict([]float64{3}, nil); err != nil {
		t.Errorf("ragged params should not fail: %v", err)
	}
}

func TestObserveCopiesParams(t *testing.T) {
	p := New(Config{})
	params := []float64{9}
	p.Observe(params, ms(1))
	params[0] = 0
	// Force k-NN path over a single observation.
	got, err := p.Predict([]float64{9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != ms(1) {
		t.Errorf("Predict = %v, want 1ms", got)
	}
}

func TestPredictRejectsNegativeModelOutput(t *testing.T) {
	// Steeply decreasing latency extrapolates below zero for large x; the
	// predictor must not return a negative duration.
	p := New(Config{MinObservations: 3})
	p.Observe([]float64{1}, ms(30))
	p.Observe([]float64{2}, ms(20))
	p.Observe([]float64{3}, ms(10))
	p.Observe([]float64{4}, ms(1))
	got, err := p.Predict([]float64{100}, nil)
	if err != nil {
		t.Fatalf("Predict error = %v", err)
	}
	if got < 0 {
		t.Errorf("Predict = %v, want non-negative", got)
	}
}

// TestPredictFlatInHistory is the deterministic guard behind "ranking cost
// does not depend on uptime": once the ring is full, recording an
// observation and predicting allocates nothing, at any history length, on
// the regression path and on the k-NN path alike.
func TestPredictFlatInHistory(t *testing.T) {
	for _, tc := range []struct {
		name    string
		varying bool // parameters vary -> regression; constant -> singular -> k-NN
	}{{"regression", true}, {"knn", false}} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{})
			params := []float64{5, 1}
			n := 0
			step := func() {
				if tc.varying {
					params[0], params[1] = float64(n%977), float64(n%13)
				}
				p.Observe(params, ms(3+0.01*params[0]+0.5*params[1]))
				n++
				if _, err := p.Predict(params, nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, history := range []int{2048, 65536} {
				for n < history {
					step()
				}
				if got := testing.AllocsPerRun(200, step); got != 0 {
					t.Errorf("history %d: Observe+Predict = %v allocs/op, want 0", history, got)
				}
				if fitted := p.coef != nil; fitted != tc.varying {
					t.Errorf("history %d: regression fitted = %v, want %v (wrong path measured)", history, fitted, tc.varying)
				}
			}
		})
	}
}

// BenchmarkObservePredict shows Observe+Predict independent of history
// length. It gates nothing; TestPredictFlatInHistory does.
func BenchmarkObservePredict(b *testing.B) {
	for _, n := range []int{1e2, 1e4, 1e6} {
		b.Run(fmt.Sprintf("n=%.0e", float64(n)), func(b *testing.B) {
			p := New(Config{})
			params := []float64{0}
			for i := 0; i < n; i++ {
				params[0] = float64(i % 977)
				p.Observe(params, ms(3+0.01*params[0]))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params[0] = float64(i % 977)
				p.Observe(params, ms(3+0.01*params[0]))
				if _, err := p.Predict(params, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
