package stats

import (
	"errors"
	"fmt"
	"math"
)

// LinearModel is a fitted simple linear regression y = Intercept + Slope*x.
type LinearModel struct {
	Intercept float64
	Slope     float64
	R2        float64 // coefficient of determination on the training data
	N         int
}

// FitLinear fits a least-squares line through (xs, ys). It returns an error
// if the lengths differ, fewer than two points are supplied, or all x values
// are identical.
func FitLinear(xs, ys []float64) (LinearModel, error) {
	if len(xs) != len(ys) {
		return LinearModel{}, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return LinearModel{}, fmt.Errorf("stats: need at least 2 points, got %d", n)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearModel{}, errors.New("stats: all x values identical")
	}
	m := LinearModel{Slope: sxy / sxx, N: n}
	m.Intercept = my - m.Slope*mx
	var ssRes, ssTot float64
	for i := range xs {
		pred := m.Intercept + m.Slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
	} else {
		m.R2 = 1
	}
	return m, nil
}

// Predict returns the model's estimate at x.
func (m LinearModel) Predict(x float64) float64 {
	return m.Intercept + m.Slope*x
}

// MultiModel is a fitted multiple linear regression
// y = Coef[0] + Coef[1]*x1 + ... + Coef[k]*xk.
type MultiModel struct {
	Coef []float64
	R2   float64
	N    int
}

// FitMulti fits a multiple linear regression where each row of features is
// one observation's predictor vector. All rows must have the same length k,
// and at least k+1 observations are required.
func FitMulti(features [][]float64, ys []float64) (MultiModel, error) {
	if len(features) != len(ys) {
		return MultiModel{}, fmt.Errorf("stats: length mismatch %d != %d", len(features), len(ys))
	}
	if len(features) == 0 {
		return MultiModel{}, errEmpty
	}
	k := len(features[0])
	var ls LeastSquares
	for i, f := range features {
		if len(f) != k {
			return MultiModel{}, fmt.Errorf("stats: row %d has %d features, want %d", i, len(f), k)
		}
		ls.Add(f, ys[i])
	}
	coef, err := ls.Solve()
	if err != nil {
		return MultiModel{}, err
	}
	m := MultiModel{Coef: coef, N: len(features)}
	my := Mean(ys)
	var ssRes, ssTot float64
	for i := range features {
		pred := m.Predict(features[i])
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
	} else {
		m.R2 = 1
	}
	return m, nil
}

// Predict returns the model's estimate for the feature vector x. Missing
// trailing features are treated as zero; extra features are ignored.
func (m MultiModel) Predict(x []float64) float64 {
	y := m.Coef[0]
	for i := 1; i < len(m.Coef); i++ {
		if i-1 < len(x) {
			y += m.Coef[i] * x[i-1]
		}
	}
	return y
}

// Solve's failures are fixed values so that a caller which solves again
// after every observation, such as a latency predictor whose parameters
// never vary, allocates nothing on the failing path either.
var (
	errUnderdetermined = errors.New("stats: fewer observations than coefficients")
	errSingular        = errors.New("stats: singular design matrix")
)

// LeastSquares accumulates the normal equations (A^T A) c = A^T y of a
// linear least-squares fit one observation at a time, so fitting costs
// O(k^2) per observation and O(k^3) per solve however many observations
// have been added, and nothing is retained per observation. Each
// observation is the row [1, x...]: coefficient 0 is the intercept. Rows may
// differ in length; a shorter row counts as zero-padded to the longest seen.
// Because every sum is accumulated in observation order, the coefficients
// are bit-identical to a batch fit over the same zero-padded rows (finite
// values assumed). The zero value is ready to use. Not safe for concurrent
// use.
type LeastSquares struct {
	n   int
	ata [][]float64 // upper triangle of A^T A
	aty []float64   // A^T y
	// Solve's scratch: elimination destroys its inputs.
	m [][]float64
	b []float64
}

// Add folds in one observation with features x and response y.
func (q *LeastSquares) Add(x []float64, y float64) {
	if len(x)+1 > len(q.aty) {
		q.grow(len(x) + 1)
	}
	q.n++
	q.aty[0] += y
	top := q.ata[0]
	top[0]++
	for j, xj := range x {
		top[j+1] += xj
	}
	for i, xi := range x {
		q.aty[i+1] += xi * y
		row := q.ata[i+1]
		for j := i; j < len(x); j++ {
			row[j+1] += xi * x[j]
		}
	}
}

// grow widens the system to k coefficients. The new rows and columns start
// at zero, which is what the earlier, shorter observations contribute.
func (q *LeastSquares) grow(k int) {
	ata := squareMatrix(k)
	for i, row := range q.ata {
		copy(ata[i], row)
	}
	q.ata = ata
	q.aty = append(q.aty, make([]float64, k-len(q.aty))...)
	q.m = squareMatrix(k)
	q.b = make([]float64, k)
}

func squareMatrix(k int) [][]float64 {
	cells := make([]float64, k*k)
	m := make([][]float64, k)
	for i := range m {
		m[i] = cells[i*k : (i+1)*k]
	}
	return m
}

// N returns the number of observations added.
func (q *LeastSquares) N() int { return q.n }

// Features returns the length of the longest feature vector added.
func (q *LeastSquares) Features() int { return max(len(q.aty)-1, 0) }

// Solve returns the least-squares coefficients [intercept, c1, ..., ck] by
// Gaussian elimination with partial pivoting on a scratch copy of the
// sums, so it allocates nothing and more observations may be added
// afterwards. The returned slice is that scratch: it is valid until the
// next call to Solve. Fewer observations than coefficients, or a singular
// system (collinear or constant features), is an error.
func (q *LeastSquares) Solve() ([]float64, error) {
	k := len(q.aty)
	if q.n < k || k == 0 {
		return nil, errUnderdetermined
	}
	for i, row := range q.m {
		for j := range row {
			if j >= i {
				row[j] = q.ata[i][j]
			} else {
				row[j] = q.ata[j][i]
			}
		}
	}
	copy(q.b, q.aty)
	return solveLinearSystem(q.m, q.b)
}

// solveLinearSystem solves M x = b in place with partial pivoting. M is
// destroyed and the returned solution is b's storage.
func solveLinearSystem(m [][]float64, b []float64) ([]float64, error) {
	k := len(m)
	for col := 0; col < k; col++ {
		// Partial pivot: pick the row with the largest magnitude in col.
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
	// Back-substitute into b: x[i] needs only b[i] and x[j] for j > i, so
	// the solution overwrites the right-hand side from the bottom up.
	for i := k - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < k; j++ {
			sum -= m[i][j] * b[j]
		}
		b[i] = sum / m[i][i]
	}
	return b, nil
}
