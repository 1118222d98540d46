// Package predict implements latency prediction from latency parameters
// (paper §2): the SDK records past latency measurements together with the
// latency parameters that produced them (for example the size of an
// argument) and predicts the latency of a new invocation from its
// parameters. A regression model is fitted when enough observations exist;
// a k-nearest-neighbour estimate is the fallback; configurable defaults
// cover the no-data case (paper: average or median of similar services, or
// a user-provided default).
//
// A Predictor keeps running sufficient statistics, not a history: the
// regression's normal equations and the latency sum cover every observation
// ever made, and only the k-NN fallback looks at the observations
// themselves, through a ring of the most recent ringSize. Observe and
// Predict therefore cost O(p^2) for p parameters (O(ringSize x p) when
// k-NN answers) and allocate nothing however long the process has been up.
package predict

import (
	"errors"
	"math"
	"time"

	"repro/internal/stats"
)

// ErrNoData is returned when a predictor has no observations and no default
// policy resolves a value.
var ErrNoData = errors.New("predict: no data")

// DefaultPolicy resolves a prediction when a service has insufficient past
// data (paper §2: "default values are used which can be the average value
// for similar services, the median value for similar services, or default
// values provided by the user").
type DefaultPolicy int

// Default policies. They are consulted only when the target service lacks
// enough observations to fit a model.
const (
	// defaultNone makes prediction fail with ErrNoData when there is no
	// model and no peer data.
	defaultNone DefaultPolicy = iota + 1
	// DefaultPeerAverage uses the average latency of similar services.
	DefaultPeerAverage
	// defaultPeerMedian uses the median latency of similar services.
	defaultPeerMedian
	// defaultUser uses a user-provided constant.
	defaultUser
)

// Config configures a Predictor.
type Config struct {
	// MinObservations is the number of observations required before a
	// model is fitted. Below it the default policy applies. Default 8.
	MinObservations int
	// Policy selects the fallback behaviour. Default defaultNone.
	Policy DefaultPolicy
	// UserDefault is the fallback latency for defaultUser.
	UserDefault time.Duration
}

func (c *Config) fill() {
	if c.MinObservations <= 0 {
		c.MinObservations = 8
	}
	if c.Policy == 0 {
		c.Policy = defaultNone
	}
}

// ringSize is how many of the most recent observations the k-NN fallback
// searches. The regression and the own-mean fallback are not windowed.
const ringSize = 1024

// kNeighbors is the neighbourhood size of the k-NN estimate used when
// regression fails (for example, collinear parameters).
const kNeighbors = 3

// Predictor predicts invocation latency for one service from latency
// parameters. It is not safe for concurrent use; callers own
// synchronization (the SDK core serializes access per service).
type Predictor struct {
	cfg Config

	// fit and sumMS summarize every observation: the regression of
	// latency (ms) on the parameters, and the own-mean fallback.
	fit   stats.LeastSquares
	sumMS float64
	// coef is the fitted model, nil when the data admit none; dirty marks
	// it stale.
	coef  []float64
	dirty bool

	// ring holds the last ringSize observations; next is the slot the
	// following one overwrites once the ring is full.
	ring []observation
	next int
	// nearest is PredictKNN's scratch, ascending by distance.
	nearest []neighbour
}

type observation struct {
	params []float64
	latMS  float64
}

type neighbour struct {
	dist  float64
	latMS float64
}

// New returns a Predictor with the given configuration.
func New(cfg Config) *Predictor {
	cfg.fill()
	return &Predictor{cfg: cfg, nearest: make([]neighbour, 0, kNeighbors)}
}

// Observe records that an invocation with the given latency parameters took
// lat. Parameter vectors of differing lengths are allowed; shorter vectors
// are zero-padded to the longest seen.
func (p *Predictor) Observe(params []float64, lat time.Duration) {
	ms := float64(lat) / float64(time.Millisecond)
	p.fit.Add(params, ms)
	p.sumMS += ms
	p.dirty = true
	if len(p.ring) < ringSize {
		p.ring = append(p.ring, observation{append([]float64(nil), params...), ms})
		return
	}
	slot := &p.ring[p.next]
	slot.params = append(slot.params[:0], params...)
	slot.latMS = ms
	p.next = (p.next + 1) % ringSize
}

// Len returns the number of recorded observations.
func (p *Predictor) Len() int { return p.fit.N() }

// Predict estimates the latency of an invocation with the given latency
// parameters. peersMS carries mean latencies (in milliseconds) of similar
// services for the peer default policies; it may be nil.
func (p *Predictor) Predict(params []float64, peersMS []float64) (time.Duration, error) {
	n := p.fit.N()
	if n >= p.cfg.MinObservations {
		if d, ok := p.predictModel(params); ok {
			return d, nil
		}
		if d, ok := p.PredictKNN(params); ok {
			return d, nil
		}
	}
	// Not enough data (or degenerate data): mean of own observations
	// still beats any cross-service default.
	if n > 0 {
		return msToDuration(p.sumMS / float64(n)), nil
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

// predictModel evaluates the multiple linear regression of latency on the
// parameters, solving the normal equations only when an observation has
// arrived since the last solve.
func (p *Predictor) predictModel(params []float64) (time.Duration, bool) {
	if p.dirty {
		p.dirty = false
		p.coef = nil
		// No parameters ever seen: nothing to regress on. A singular or
		// underdetermined system likewise leaves no model.
		if p.fit.Features() > 0 {
			p.coef, _ = p.fit.Solve()
		}
	}
	if p.coef == nil {
		return 0, false
	}
	v := stats.MultiModel{Coef: p.coef}.Predict(params)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, false
	}
	return msToDuration(v), true
}

// PredictKNN averages the latencies of the kNeighbors nearest of the last
// ringSize observations in parameter space (Euclidean distance on
// zero-padded vectors), the newer observation winning a tie. It reports
// false only when nothing has been observed. Predict falls back to it when
// the regression is singular or extrapolates below zero.
func (p *Predictor) PredictKNN(params []float64) (time.Duration, bool) {
	n := len(p.ring)
	if n == 0 {
		return 0, false
	}
	width := p.fit.Features()
	k := min(kNeighbors, n)
	best := p.nearest[:0]
	// Newest first, so that an equally distant older observation never
	// displaces a newer one.
	for i := 1; i <= n; i++ {
		o := &p.ring[(p.next-i+n)%n]
		var d float64
		for j := 0; j < width; j++ {
			var a, b float64
			if j < len(o.params) {
				a = o.params[j]
			}
			if j < len(params) {
				b = params[j]
			}
			diff := a - b
			d += diff * diff
		}
		switch {
		case len(best) < k:
			best = append(best, neighbour{d, o.latMS})
		case d < best[k-1].dist:
			best[k-1] = neighbour{d, o.latMS}
		default:
			continue
		}
		for j := len(best) - 1; j > 0 && best[j-1].dist > best[j].dist; j-- {
			best[j-1], best[j] = best[j], best[j-1]
		}
	}
	var sum float64
	for _, nb := range best {
		sum += nb.latMS
	}
	return msToDuration(sum / float64(len(best))), true
}

func msToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
