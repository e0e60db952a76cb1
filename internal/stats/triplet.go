// Package stats implements the statistical prediction environment used by
// BAD and CHOP. Every predicted quantity (area, delay, performance, clock
// overhead, ...) is carried as a Triplet: a lower bound, a most-likely value
// and an upper bound. Feasibility against a hard constraint is evaluated as
// the probability that the quantity satisfies the constraint, modeling the
// triplet as a triangular distribution, which is the standard three-point
// estimation model and matches the paper's "lower bound, most likely, upper
// bound" description (paper section 2.6).
package stats

import (
	"fmt"
	"math"
)

// Triplet is a three-point statistical estimate of a physical quantity.
// Invariant: Lo <= ML <= Hi. The zero value represents an exact zero.
type Triplet struct {
	Lo float64 // lower bound
	ML float64 // most likely value (the mode)
	Hi float64 // upper bound
}

// Exact returns a degenerate triplet whose distribution is a point mass at v.
func Exact(v float64) Triplet { return Triplet{Lo: v, ML: v, Hi: v} }

// Spread returns a triplet centered on ml with relative lower and upper
// margins. loFrac and hiFrac are fractions of ml (e.g. 0.05 for +-5%); they
// must be non-negative. Spread is how the predictors attach uncertainty to
// an analytically derived most-likely value.
func Spread(ml, loFrac, hiFrac float64) Triplet {
	m := math.Abs(ml)
	return Triplet{Lo: ml - loFrac*m, ML: ml, Hi: ml + hiFrac*m}
}

// Valid reports whether the triplet satisfies Lo <= ML <= Hi and all parts
// are finite.
func (t Triplet) Valid() bool {
	for _, v := range [...]float64{t.Lo, t.ML, t.Hi} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return t.Lo <= t.ML && t.ML <= t.Hi
}

// IsExact reports whether the triplet is a point mass.
func (t Triplet) IsExact() bool { return t.Lo == t.ML && t.ML == t.Hi }

// Add returns the sum of two independent triplet estimates. Bounds add; this
// is the conservative interval sum also used for the mode.
func (t Triplet) Add(u Triplet) Triplet {
	return Triplet{Lo: t.Lo + u.Lo, ML: t.ML + u.ML, Hi: t.Hi + u.Hi}
}

// Sub returns t - u, pairing t's lower bound with u's upper bound so the
// result remains a conservative interval.
func (t Triplet) Sub(u Triplet) Triplet {
	return Triplet{Lo: t.Lo - u.Hi, ML: t.ML - u.ML, Hi: t.Hi - u.Lo}
}

// Scale multiplies every part of the triplet by k (k may be negative, which
// flips the bounds).
func (t Triplet) Scale(k float64) Triplet {
	s := Triplet{Lo: t.Lo * k, ML: t.ML * k, Hi: t.Hi * k}
	if k < 0 {
		s.Lo, s.Hi = s.Hi, s.Lo
	}
	return s
}

// Max returns the part-wise maximum of two triplets. This models the latency
// of parallel branches joining (both must finish).
func (t Triplet) Max(u Triplet) Triplet {
	return Triplet{
		Lo: fmax(t.Lo, u.Lo),
		ML: fmax(t.ML, u.ML),
		Hi: fmax(t.Hi, u.Hi),
	}
}

// fmax is math.Max with an inlined fast path for ordered operands; ties
// (including signed zeros) and NaNs take math.Max, so the result is the
// same bit for bit. The integrator takes this maximum on every trial.
func fmax(x, y float64) float64 {
	switch {
	case x > y:
		return x
	case y > x:
		return y
	}
	return math.Max(x, y)
}

// Min returns the part-wise minimum of two triplets.
func (t Triplet) Min(u Triplet) Triplet {
	return Triplet{
		Lo: math.Min(t.Lo, u.Lo),
		ML: math.Min(t.ML, u.ML),
		Hi: math.Min(t.Hi, u.Hi),
	}
}

// Sum folds Add over its arguments.
func Sum(ts ...Triplet) Triplet {
	var acc Triplet
	for _, t := range ts {
		acc = acc.Add(t)
	}
	return acc
}

// MaxOf folds Max over its arguments; it returns the zero triplet when
// called with no arguments.
func MaxOf(ts ...Triplet) Triplet {
	if len(ts) == 0 {
		return Triplet{}
	}
	acc := ts[0]
	for _, t := range ts[1:] {
		acc = acc.Max(t)
	}
	return acc
}

// Mean returns the mean of the triangular distribution, (Lo+ML+Hi)/3.
func (t Triplet) Mean() float64 { return (t.Lo + t.ML + t.Hi) / 3 }

// ProbLE returns P(X <= c) for the triangular distribution described by the
// triplet. Degenerate triplets give a 0/1 step function.
func (t Triplet) ProbLE(c float64) float64 {
	if t.IsExact() {
		if c >= t.ML {
			return 1
		}
		return 0
	}
	switch {
	case c <= t.Lo:
		return 0
	case c >= t.Hi:
		return 1
	case c <= t.ML:
		den := (t.Hi - t.Lo) * (t.ML - t.Lo)
		if den == 0 {
			// Lo == ML: distribution is a descending right triangle.
			return 1 - (t.Hi-c)*(t.Hi-c)/((t.Hi-t.Lo)*(t.Hi-t.ML))
		}
		return (c - t.Lo) * (c - t.Lo) / den
	default: // ML < c < Hi
		den := (t.Hi - t.Lo) * (t.Hi - t.ML)
		if den == 0 {
			return 1
		}
		return 1 - (t.Hi-c)*(t.Hi-c)/den
	}
}

// ProbGE returns P(X >= c).
func (t Triplet) ProbGE(c float64) float64 {
	if t.IsExact() {
		if c <= t.ML {
			return 1
		}
		return 0
	}
	return 1 - t.ProbLE(c)
}

func (t Triplet) String() string {
	if t.IsExact() {
		return fmt.Sprintf("%.4g", t.ML)
	}
	return fmt.Sprintf("[%.4g %.4g %.4g]", t.Lo, t.ML, t.Hi)
}

// Constraint is a hard upper-bound constraint evaluated probabilistically, as
// in the paper's feasibility criteria ("probability of 100% of satisfying the
// performance and chip area constraints, probability of 80% of satisfying the
// system delay constraint").
type Constraint struct {
	// Bound is the hard upper bound on the quantity.
	Bound float64
	// MinProb is the minimum acceptable probability that the quantity is
	// at or below Bound. 1.0 demands certainty (the Hi bound must fit).
	MinProb float64
}

// Satisfied reports whether the triplet meets the constraint, i.e. whether
// P(X <= Bound) >= MinProb.
func (c Constraint) Satisfied(t Triplet) bool {
	return t.ProbLE(c.Bound) >= c.MinProb-1e-12
}

// Slack returns Bound - Hi for MinProb == 1 and Bound - Mean otherwise: a
// positive value means the constraint is comfortably met. It is used to rank
// candidate serializations in the iterative heuristic.
func (c Constraint) Slack(t Triplet) float64 {
	if c.MinProb >= 1 {
		return c.Bound - t.Hi
	}
	return c.Bound - t.Mean()
}
