package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitLinearExact(t *testing.T) {
	// y = 3 + 2x fitted exactly.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatalf("FitLinear error = %v", err)
	}
	if !almostEqual(m.Intercept, 3, 1e-9) || !almostEqual(m.Slope, 2, 1e-9) {
		t.Errorf("model = %+v, want intercept 3 slope 2", m)
	}
	if !almostEqual(m.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", m.R2)
	}
	if got := m.Predict(10); !almostEqual(got, 23, 1e-9) {
		t.Errorf("Predict(10) = %v, want 23", got)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	// Noisy but strongly linear data should recover slope approximately.
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		x := float64(i)
		noise := math.Sin(float64(i) * 12.9898) // deterministic pseudo-noise in [-1,1]
		xs[i] = x
		ys[i] = 5 + 0.5*x + noise
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatalf("FitLinear error = %v", err)
	}
	if math.Abs(m.Slope-0.5) > 0.05 {
		t.Errorf("Slope = %v, want ~0.5", m.Slope)
	}
	if m.R2 < 0.95 {
		t.Errorf("R2 = %v, want > 0.95", m.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		ys   []float64
	}{
		{"mismatched", []float64{1, 2}, []float64{1}},
		{"too few", []float64{1}, []float64{1}},
		{"constant x", []float64{2, 2, 2}, []float64{1, 2, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FitLinear(tt.xs, tt.ys); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestFitMultiExact(t *testing.T) {
	// y = 2 + 3a - b over a small grid.
	var feats [][]float64
	var ys []float64
	for a := 0.0; a < 4; a++ {
		for b := 0.0; b < 4; b++ {
			feats = append(feats, []float64{a, b})
			ys = append(ys, 2+3*a-b)
		}
	}
	m, err := FitMulti(feats, ys)
	if err != nil {
		t.Fatalf("FitMulti error = %v", err)
	}
	want := []float64{2, 3, -1}
	for i, w := range want {
		if !almostEqual(m.Coef[i], w, 1e-8) {
			t.Errorf("Coef[%d] = %v, want %v", i, m.Coef[i], w)
		}
	}
	if got := m.Predict([]float64{10, 5}); !almostEqual(got, 27, 1e-7) {
		t.Errorf("Predict = %v, want 27", got)
	}
}

func TestFitMultiErrors(t *testing.T) {
	if _, err := FitMulti(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := FitMulti([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := FitMulti([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows should error")
	}
	// Collinear features -> singular matrix.
	feats := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	ys := []float64{1, 2, 3, 4}
	if _, err := FitMulti(feats, ys); err == nil {
		t.Error("collinear features should error")
	}
}

func TestSolveLinearSystemPivoting(t *testing.T) {
	// A system that requires pivoting (zero on the diagonal initially).
	m := [][]float64{
		{0, 1},
		{1, 0},
	}
	b := []float64{2, 3}
	x, err := solveLinearSystem(m, b)
	if err != nil {
		t.Fatalf("solveLinearSystem error = %v", err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

// batchLeastSquares is the batch normal-equations solver that FitMulti
// used before LeastSquares replaced it, frozen as the oracle: it
// accumulates A^T A and A^T y over explicit [1, x...] rows in one pass and
// back-substitutes into a fresh slice.
func batchLeastSquares(a [][]float64, y []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errEmpty
	}
	k := len(a[0])
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	aty := make([]float64, k)
	for r := 0; r < n; r++ {
		row := a[r]
		for i := 0; i < k; i++ {
			aty[i] += row[i] * y[r]
			for j := i; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
	}
	m, b := ata, aty
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, errSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < k; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				m[r][c] -= f * m[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < k; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// TestLeastSquaresMatchesBatchSolver pins the incremental accumulator to
// the batch solver bit for bit: ragged rows against their zero-padded
// forms, a solve after every added row (Solve must not disturb the sums),
// and FitMulti end to end.
func TestLeastSquaresMatchesBatchSolver(t *testing.T) {
	sameBits := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxWidth := 1 + rng.Intn(4)
		n := maxWidth + 1 + rng.Intn(40)
		var ls LeastSquares
		var padded [][]float64 // [1, x..., 0...] at the width seen so far
		var ys []float64
		width := 0
		for i := 0; i < n; i++ {
			x := make([]float64, rng.Intn(maxWidth+1))
			for j := range x {
				x[j] = rng.NormFloat64() * 100
			}
			if seed%5 == 0 && len(x) > 1 {
				x[1] = 3 * x[0] // collinear: both sides must call it singular
			}
			y := rng.NormFloat64() * 10
			ls.Add(x, y)
			ys = append(ys, y)
			width = max(width, len(x))
			padded = append(padded, append([]float64{1}, x...))
			for r := range padded {
				for len(padded[r]) < width+1 {
					padded[r] = append(padded[r], 0)
				}
			}
			if ls.N() != i+1 || ls.Features() != width {
				t.Fatalf("seed %d: N, Features = %d, %d; want %d, %d", seed, ls.N(), ls.Features(), i+1, width)
			}
			if i+1 < width+1 {
				if _, err := ls.Solve(); err == nil {
					t.Fatalf("seed %d: %d observations for %d coefficients solved", seed, i+1, width+1)
				}
				continue
			}
			want, werr := batchLeastSquares(padded, ys)
			got, gerr := ls.Solve()
			if (gerr == nil) != (werr == nil) || !sameBits(got, want) {
				t.Fatalf("seed %d after %d rows: Solve = %v, %v; batch solver %v, %v", seed, i+1, got, gerr, want, werr)
			}
		}

		feats := make([][]float64, n)
		rows := make([][]float64, n)
		for i := range feats {
			feats[i] = make([]float64, maxWidth)
			for j := range feats[i] {
				feats[i][j] = rng.Float64() * 50
			}
			rows[i] = append([]float64{1}, feats[i]...)
		}
		want, _ := batchLeastSquares(rows, ys)
		if m, err := FitMulti(feats, ys); err != nil || !sameBits(m.Coef, want) {
			t.Fatalf("seed %d: FitMulti = %v, %v; batch solver %v", seed, m.Coef, err, want)
		}
	}
}

func TestLeastSquaresSolveAllocatesNothing(t *testing.T) {
	var ls LeastSquares
	x := []float64{0, 5}
	for i := 0; i < 10; i++ {
		x[0] = float64(i)
		ls.Add(x, float64(2*i)) // second feature constant: singular
	}
	if got := testing.AllocsPerRun(100, func() {
		ls.Add(x, 1)
		if _, err := ls.Solve(); err == nil {
			t.Fatal("constant feature solved")
		}
	}); got != 0 {
		t.Errorf("Add+Solve on a singular system = %v allocs/op, want 0", got)
	}
}
