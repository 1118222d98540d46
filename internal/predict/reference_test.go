package predict

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

// refPredictor is the append-and-refit Predictor this package shipped before
// it moved to running sufficient statistics, frozen here as the oracle: it
// keeps every observation, refits stats.FitMulti over the zero-padded
// history on the first Predict after each Observe, and sorts the whole
// history for k-NN. It lives in a _test.go file so product code cannot
// import it. (stats.FitMulti itself is pinned to the batch normal-equations
// solver it replaced by internal/stats' own oracle test.)
type refPredictor struct {
	cfg    Config
	params [][]float64
	latMS  []float64

	model      stats.MultiModel
	modelValid bool
	dirty      bool
}

func newRef(cfg Config) *refPredictor {
	cfg.fill()
	return &refPredictor{cfg: cfg}
}

func (p *refPredictor) Observe(params []float64, lat time.Duration) {
	cp := make([]float64, len(params))
	copy(cp, params)
	p.params = append(p.params, cp)
	p.latMS = append(p.latMS, float64(lat)/float64(time.Millisecond))
	p.dirty = true
}

func (p *refPredictor) Len() int { return len(p.params) }

func (p *refPredictor) Predict(params []float64, peersMS []float64) (time.Duration, error) {
	if len(p.params) >= p.cfg.MinObservations {
		if d, ok := p.predictModel(params); ok {
			return d, nil
		}
		if d, ok := p.predictKNN(params); ok {
			return d, nil
		}
	}
	if len(p.latMS) > 0 {
		return msToDuration(stats.Mean(p.latMS)), nil
	}
	switch p.cfg.Policy {
	case DefaultPeerAverage:
		if len(peersMS) > 0 {
			return msToDuration(stats.Mean(peersMS)), nil
		}
	case defaultPeerMedian:
		if len(peersMS) > 0 {
			return msToDuration(stats.Median(peersMS)), nil
		}
	case defaultUser:
		return p.cfg.UserDefault, nil
	}
	return 0, ErrNoData
}

func (p *refPredictor) predictModel(params []float64) (time.Duration, bool) {
	if p.dirty {
		p.refit()
	}
	if !p.modelValid {
		return 0, false
	}
	padded := p.pad(params)
	v := p.model.Predict(padded)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, false
	}
	return msToDuration(v), true
}

func (p *refPredictor) refit() {
	p.dirty = false
	p.modelValid = false
	width := p.maxWidth()
	if width == 0 {
		return
	}
	rows := make([][]float64, len(p.params))
	for i, pr := range p.params {
		rows[i] = p.padTo(pr, width)
	}
	m, err := stats.FitMulti(rows, p.latMS)
	if err != nil {
		return
	}
	p.model = m
	p.modelValid = true
}

func (p *refPredictor) predictKNN(params []float64) (time.Duration, bool) {
	if len(p.params) == 0 {
		return 0, false
	}
	width := p.maxWidth()
	q := p.padTo(params, width)
	type neigh struct {
		dist float64
		lat  float64
	}
	ns := make([]neigh, len(p.params))
	for i, pr := range p.params {
		row := p.padTo(pr, width)
		var d float64
		for j := range row {
			diff := row[j] - q[j]
			d += diff * diff
		}
		ns[i] = neigh{dist: d, lat: p.latMS[i]}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].dist < ns[j].dist })
	k := min(kNeighbors, len(ns))
	var sum float64
	for i := 0; i < k; i++ {
		sum += ns[i].lat
	}
	return msToDuration(sum / float64(k)), true
}

func (p *refPredictor) maxWidth() int {
	w := 0
	for _, pr := range p.params {
		if len(pr) > w {
			w = len(pr)
		}
	}
	return w
}

func (p *refPredictor) pad(params []float64) []float64 {
	return p.padTo(params, p.maxWidth())
}

func (p *refPredictor) padTo(params []float64, width int) []float64 {
	out := make([]float64, width)
	copy(out, params)
	return out
}

// tieFree reports whether the reference's squared distances from q to every
// observation are pairwise distinct, so that "the k nearest, nearest first"
// names one sequence whatever the sort does with equal keys.
func (p *refPredictor) tieFree(q []float64) bool {
	width := p.maxWidth()
	qp := p.padTo(q, width)
	seen := make(map[float64]bool, len(p.params))
	for _, pr := range p.params {
		row := p.padTo(pr, width)
		var d float64
		for j := range row {
			diff := row[j] - qp[j]
			d += diff * diff
		}
		if seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// historyShape names how one equivalence history draws its observations.
type historyShape int

const (
	shapeLinear    historyShape = iota // fixed width, latency linear in the parameters plus noise
	shapeRagged                        // width drawn per observation from 1..3
	shapeCollinear                     // second parameter = 2 x first: singular -> k-NN
	shapeConstant                      // second parameter constant: singular -> k-NN
	shapeAllSame                       // one parameter value, one latency: singular, every distance tied
	shapeFalling                       // latency falls steeply: far queries extrapolate below zero -> k-NN
	numShapes
)

// draw returns the next observation and a query for a history of the given
// shape. Integer-valued parameters keep the singular shapes exactly
// singular in floating point; the quarter offset on their queries keeps
// distances to integer points distinct.
func (s historyShape) draw(rng *rand.Rand, width, i int, distinct []int) (params []float64, lat time.Duration, query []float64) {
	switch s {
	case shapeRagged:
		width = 1 + rng.Intn(3)
		fallthrough
	case shapeLinear:
		params = make([]float64, width)
		y := 2.0
		for j := range params {
			params[j] = rng.Float64() * 1000
			y += 0.01 * float64(j+1) * params[j]
		}
		y += rng.Float64()
		query = make([]float64, 1+rng.Intn(3))
		for j := range query {
			query[j] = rng.Float64() * 1200
		}
		return params, ms(y), query
	case shapeCollinear:
		x := float64(distinct[i] + 1)
		return []float64{x, 2 * x}, ms(1 + 0.5*x + rng.Float64()), []float64{float64(rng.Intn(2000)) + 0.25, rng.Float64() * 100}
	case shapeConstant:
		x := float64(distinct[i] + 1)
		return []float64{x, 5}, ms(3 + 0.1*x + rng.Float64()), []float64{float64(rng.Intn(2000)) + 0.25, 5}
	case shapeAllSame:
		return []float64{7}, ms(40), []float64{float64(rng.Intn(20))}
	case shapeFalling:
		x := rng.Float64() * 10
		q := rng.Float64() * 10
		if rng.Intn(2) == 0 {
			q = 1000 + rng.Float64()*1000
		}
		return []float64{x}, ms(100 - 9*x + rng.Float64()), []float64{q}
	}
	panic("unknown shape")
}

func TestPredictorMatchesExactRefit(t *testing.T) {
	const histories = 320
	paths := map[string]int{}
	for h := 0; h < histories; h++ {
		rng := rand.New(rand.NewSource(int64(h) + 1))
		cfg := Config{
			MinObservations: []int{1, 3, 8, 20}[rng.Intn(4)],
			Policy:          DefaultPolicy(1 + rng.Intn(4)),
			UserDefault:     ms(33),
		}
		var peers []float64
		if rng.Intn(3) > 0 {
			peers = []float64{10, 20, 90, 7.5}[:1+rng.Intn(4)]
		}
		shape := historyShape(h % int(numShapes))
		length := 1 + rng.Intn(60)
		predictEvery := 1 + rng.Intn(3)
		if h%40 == 7 {
			// A few histories fill the ring exactly; the reference is
			// quadratic in history, so predict less often there.
			length, predictEvery = ringSize, 97
		}
		width := 1 + rng.Intn(3)
		distinct := rng.Perm(2 * ringSize)

		got, want := New(cfg), newRef(cfg)
		check := func(q []float64) {
			t.Helper()
			n := want.Len()
			path := "default"
			switch _, ok := want.predictModel(q); {
			case n >= cfg.MinObservations && ok:
				path = "model"
			case n >= cfg.MinObservations:
				path = "knn"
			case n > 0:
				path = "mean"
			}
			wd, werr := want.Predict(q, peers)
			gd, gerr := got.Predict(q, peers)
			if gerr != werr {
				t.Fatalf("history %d (shape %d) n=%d %s path: err = %v, reference %v", h, shape, n, path, gerr, werr)
			}
			// Tied distances leave the reference's unstable sort free to
			// pick any of the tied, unless they all carry one latency.
			exact := path != "knn" || shape == shapeAllSame || want.tieFree(q)
			if exact && gd != wd {
				t.Fatalf("history %d (shape %d) n=%d %s path: Predict(%v) = %d ns, reference %d ns", h, shape, n, path, q, gd, wd)
			}
			if exact {
				paths[path]++
			}
			if n > 0 && want.tieFree(q) {
				wk, _ := want.predictKNN(q)
				gk, ok := got.PredictKNN(q)
				if !ok || gk != wk {
					t.Fatalf("history %d (shape %d) n=%d: PredictKNN(%v) = %d ns, %v, reference %d ns", h, shape, n, q, gk, ok, wk)
				}
				paths["knn-direct"]++
			}
			if got.Len() != want.Len() {
				t.Fatalf("history %d: Len = %d, reference %d", h, got.Len(), want.Len())
			}
		}
		check([]float64{rng.Float64() * 10}) // empty history: policy and peers
		for i := 0; i < length; i++ {
			params, lat, q := shape.draw(rng, width, i, distinct)
			got.Observe(params, lat)
			want.Observe(params, lat)
			if i%predictEvery == 0 || i == length-1 {
				check(q)
			}
		}
	}
	for _, path := range []string{"default", "mean", "model", "knn", "knn-direct"} {
		if paths[path] < 20 {
			t.Errorf("only %d exact comparisons on the %s path; the histories no longer cover it", paths[path], path)
		}
	}
	t.Logf("exact comparisons by path: %v", paths)
}

// TestPredictorDeliberateDifferences pins the two places where the
// Predictor is meant to differ from the exact refit: the k-NN fallback sees
// only the last ringSize observations, and among equally distant
// observations it prefers the newer.
func TestPredictorDeliberateDifferences(t *testing.T) {
	t.Run("ring eviction", func(t *testing.T) {
		var cfg Config
		got, want := New(cfg), newRef(cfg)
		observe := func(x float64, lat time.Duration) {
			got.Observe([]float64{x}, lat)
			want.Observe([]float64{x}, lat)
		}
		observe(0, ms(999)) // observation 1, the nearest to the query
		for i := 1; i < ringSize; i++ {
			observe(float64(1000+i), ms(float64(i)))
		}
		q := []float64{0}
		if d, _ := got.PredictKNN(q); d != ms(334) {
			t.Fatalf("ring exactly full: PredictKNN = %v, want mean(999ms, 1ms, 2ms) = 334ms", d)
		}
		observe(5000, ms(5)) // observation ringSize+1 displaces observation 1
		if d, _ := want.predictKNN(q); d != ms(334) {
			t.Fatalf("reference forgot observation 1: %v", d)
		}
		if d, _ := got.PredictKNN(q); d != ms(2) {
			t.Errorf("after eviction: PredictKNN = %v, want mean(1ms, 2ms, 3ms) = 2ms", d)
		}
		if got.Len() != ringSize+1 {
			t.Errorf("Len = %d, want %d: the ring bounds k-NN, not the count", got.Len(), ringSize+1)
		}
		// The regression is not windowed: it still agrees bit for bit.
		gd, gerr := got.Predict([]float64{2000}, nil)
		wd, werr := want.Predict([]float64{2000}, nil)
		if gerr != nil || werr != nil || gd != wd {
			t.Errorf("regression after eviction: %v, %v; reference %v, %v", gd, gerr, wd, werr)
		}
	})
	t.Run("newest wins a tie", func(t *testing.T) {
		p := New(Config{})
		for _, lat := range []float64{10, 20, 30, 40} {
			p.Observe([]float64{5}, ms(lat))
		}
		p.Observe([]float64{9}, ms(70))
		if d, _ := p.PredictKNN([]float64{5}); d != ms(30) {
			t.Errorf("PredictKNN = %v, want mean of the three newer tied observations (20, 30, 40ms) = 30ms", d)
		}
		p = New(Config{})
		p.Observe([]float64{4}, ms(10)) // distance 1, oldest: loses the third place
		p.Observe([]float64{6}, ms(30)) // distance 1, newer
		p.Observe([]float64{5}, ms(50)) // distance 0
		p.Observe([]float64{5}, ms(70)) // distance 0
		if d, _ := p.PredictKNN([]float64{5}); d != ms(50) {
			t.Errorf("PredictKNN = %v, want mean(50ms, 70ms, 30ms) = 50ms", d)
		}
	})
}
