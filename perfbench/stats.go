package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// Harrell-Davis estimator: a weighted average of every order statistic
// with Beta(p(n+1), (1-p)(n+1)) weights. Latencies here cluster by
// input (22 executables, 7 request classes), and a plain percentile
// that falls between two clusters reads the extreme of one of them;
// the weighted average moves smoothly. xs need not be sorted; it is not
// modified. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := p/100*(n+1), (1-p/100)*(n+1)
	q, prev := 0.0, 0.0
	for i, x := range s {
		cur := regIncBeta(float64(i+1)/n, a, b)
		q += (cur - prev) * x
		prev = cur
	}
	return q
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by Lentz's continued fraction on whichever side of the mean
// converges fast.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x > (a+1)/(a+b+2) {
		return 1 - front*betaCF(1-x, b, a)/b
	}
	return front * betaCF(x, a, b) / a
}

func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// tailLadder is the percentiles the benchmark reports tails at, from
// the lowest.
var tailLadder = []float64{50, 90, 99, 99.9}

// supportedTail is the percentile rule: the highest percentile of
// tailLadder that has at least ten samples beyond it in a sample of n,
// or 0 when not even the median has. A tail read off fewer than ten
// samples is one or two outliers, not a distribution.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is a/b, or 0 when b is 0 (a layer that saw no work).
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is how one attempted operation ended.
type outcome int

const (
	// okResult: the operation returned a result that passed its check.
	okResult outcome = iota
	// okExpectedError: the operation was meant to fail (a broken edit)
	// and failed with the typed error it was meant to.
	okExpectedError
	// failed: an error, a timeout, a wrong status, or an output that
	// failed verification.
	failed
)

// tally counts attempted operations by outcome.
type tally struct {
	attempted, failures, expectedErrors int
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case failed:
		t.failures++
	case okExpectedError:
		t.expectedErrors++
	}
}

// failRate is failures over attempts. Expected typed errors are
// successes: the program did what it was asked.
func (t tally) failRate() float64 { return frac(float64(t.failures), float64(t.attempted)) }

// classifyHTTP decides the outcome of one HTTP exchange from its status
// and the error kind in the body. wantKind names the typed error a
// deliberately broken request must come back with ("" for a request
// that must succeed); verified reports whether a 200 body passed its
// output check.
func classifyHTTP(status int, kind, wantKind string, verified bool) outcome {
	if wantKind != "" {
		if status == 422 && kind == wantKind {
			return okExpectedError
		}
		return failed
	}
	if status == 200 && verified {
		return okResult
	}
	return failed
}
