package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestExact(t *testing.T) {
	e := Exact(42)
	if !e.IsExact() || e.ML != 42 {
		t.Fatalf("Exact(42) = %v", e)
	}
	if !e.Valid() {
		t.Fatal("exact triplet must be valid")
	}
}

func TestSpread(t *testing.T) {
	s := Spread(100, 0.1, 0.2)
	if s.Lo != 90 || s.ML != 100 || s.Hi != 120 {
		t.Fatalf("Spread = %v", s)
	}
	if !s.Valid() {
		t.Fatal("spread triplet must be valid")
	}
}

func TestSpreadNegativeML(t *testing.T) {
	s := Spread(-100, 0.1, 0.1)
	if !s.Valid() {
		t.Fatalf("Spread around negative value invalid: %v", s)
	}
	if s.Lo != -110 || s.Hi != -90 {
		t.Fatalf("Spread(-100) = %v", s)
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		t    Triplet
		want bool
	}{
		{Triplet{1, 2, 3}, true},
		{Triplet{3, 2, 1}, false},
		{Triplet{1, 1, 1}, true},
		{Triplet{math.NaN(), 1, 2}, false},
		{Triplet{0, 1, math.Inf(1)}, false},
	}
	for _, c := range cases {
		if got := c.t.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestAddSub(t *testing.T) {
	a := Triplet{1, 2, 3}
	b := Triplet{10, 20, 30}
	sum := a.Add(b)
	if sum != (Triplet{11, 22, 33}) {
		t.Fatalf("Add = %v", sum)
	}
	d := b.Sub(a)
	if d != (Triplet{7, 18, 29}) {
		t.Fatalf("Sub = %v", d)
	}
	if !d.Valid() {
		t.Fatal("Sub result should remain a valid interval")
	}
}

func TestScale(t *testing.T) {
	a := Triplet{1, 2, 3}
	if got := a.Scale(2); got != (Triplet{2, 4, 6}) {
		t.Fatalf("Scale(2) = %v", got)
	}
	neg := a.Scale(-1)
	if !neg.Valid() {
		t.Fatalf("Scale(-1) produced invalid triplet %v", neg)
	}
	if neg != (Triplet{-3, -2, -1}) {
		t.Fatalf("Scale(-1) = %v", neg)
	}
}

func TestMaxMin(t *testing.T) {
	a := Triplet{1, 5, 9}
	b := Triplet{2, 4, 10}
	if got := a.Max(b); got != (Triplet{2, 5, 10}) {
		t.Fatalf("Max = %v", got)
	}
	if got := a.Min(b); got != (Triplet{1, 4, 9}) {
		t.Fatalf("Min = %v", got)
	}
	// Max agrees with math.Max bit for bit on the special values.
	special := []float64{math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range special {
		for _, y := range special {
			got := Exact(x).Max(Exact(y)).ML
			if want := math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("Max(%v, %v) = %v, math.Max gives %v", x, y, got, want)
			}
		}
	}
}

func TestSumMaxOf(t *testing.T) {
	if got := Sum(Exact(1), Exact(2), Exact(3)); got.ML != 6 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Sum(); got != (Triplet{}) {
		t.Fatalf("empty Sum = %v", got)
	}
	if got := MaxOf(Exact(1), Exact(5), Exact(3)); got.ML != 5 {
		t.Fatalf("MaxOf = %v", got)
	}
	if got := MaxOf(); got != (Triplet{}) {
		t.Fatalf("empty MaxOf = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := (Triplet{0, 3, 6}).Mean(); got != 3 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestProbLEExact(t *testing.T) {
	e := Exact(10)
	if e.ProbLE(9.999) != 0 || e.ProbLE(10) != 1 || e.ProbLE(11) != 1 {
		t.Fatal("step function expected for exact triplet")
	}
}

func TestProbLEKnownValues(t *testing.T) {
	// Symmetric triangle on [0, 2] with mode 1.
	tr := Triplet{0, 1, 2}
	cases := []struct{ c, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.125}, {1, 0.5}, {1.5, 0.875}, {2, 1}, {3, 1},
	}
	for _, cs := range cases {
		if got := tr.ProbLE(cs.c); !approx(got, cs.want, 1e-12) {
			t.Errorf("ProbLE(%v) = %v, want %v", cs.c, got, cs.want)
		}
	}
}

func TestProbLEDegenerateEdges(t *testing.T) {
	// Lo == ML: descending right triangle on [0,2].
	right := Triplet{0, 0, 2}
	if got := right.ProbLE(0); got != 0 {
		t.Errorf("right-triangle ProbLE(Lo) = %v", got)
	}
	if got := right.ProbLE(1); !approx(got, 0.75, 1e-12) {
		t.Errorf("right-triangle ProbLE(1) = %v, want 0.75", got)
	}
	// ML == Hi: ascending triangle on [0,2].
	left := Triplet{0, 2, 2}
	if got := left.ProbLE(1); !approx(got, 0.25, 1e-12) {
		t.Errorf("left-triangle ProbLE(1) = %v, want 0.25", got)
	}
}

func TestProbGE(t *testing.T) {
	tr := Triplet{0, 1, 2}
	if got := tr.ProbGE(1); !approx(got, 0.5, 1e-12) {
		t.Fatalf("ProbGE(1) = %v", got)
	}
	e := Exact(5)
	if e.ProbGE(5) != 1 || e.ProbGE(6) != 0 {
		t.Fatal("exact ProbGE step broken")
	}
}

func TestConstraintSatisfied(t *testing.T) {
	tr := Triplet{90, 100, 120}
	hard := Constraint{Bound: 120, MinProb: 1}
	if !hard.Satisfied(tr) {
		t.Fatal("Hi == Bound must satisfy a hard constraint")
	}
	hard2 := Constraint{Bound: 119, MinProb: 1}
	if hard2.Satisfied(tr) {
		t.Fatal("Hi > Bound must violate a hard constraint")
	}
	soft := Constraint{Bound: 104, MinProb: 0.5}
	if !soft.Satisfied(tr) {
		t.Fatalf("P(X<=104)=%v should exceed 0.5", tr.ProbLE(104))
	}
}

func TestConstraintSlack(t *testing.T) {
	tr := Triplet{90, 100, 120}
	if got := (Constraint{Bound: 130, MinProb: 1}).Slack(tr); got != 10 {
		t.Fatalf("hard slack = %v", got)
	}
	soft := Constraint{Bound: 130, MinProb: 0.8}
	want := 130 - tr.Mean()
	if got := soft.Slack(tr); !approx(got, want, 1e-12) {
		t.Fatalf("soft slack = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	if s := Exact(3).String(); s != "3" {
		t.Fatalf("String exact = %q", s)
	}
	if s := (Triplet{1, 2, 3}).String(); s != "[1 2 3]" {
		t.Fatalf("String = %q", s)
	}
}

// randomTriplet normalizes three arbitrary floats into a valid triplet.
func randomTriplet(a, b, c float64) Triplet {
	vals := []float64{clampFinite(a), clampFinite(b), clampFinite(c)}
	lo, ml, hi := vals[0], vals[1], vals[2]
	if lo > ml {
		lo, ml = ml, lo
	}
	if ml > hi {
		ml, hi = hi, ml
	}
	if lo > ml {
		lo, ml = ml, lo
	}
	return Triplet{lo, ml, hi}
}

func clampFinite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e9)
}

func TestPropProbLEMonotone(t *testing.T) {
	f := func(a, b, c, x, y float64) bool {
		tr := randomTriplet(a, b, c)
		x, y = clampFinite(x), clampFinite(y)
		if x > y {
			x, y = y, x
		}
		return tr.ProbLE(x) <= tr.ProbLE(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropProbLEInUnitRange(t *testing.T) {
	f := func(a, b, c, x float64) bool {
		p := randomTriplet(a, b, c).ProbLE(clampFinite(x))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddPreservesValidity(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		return randomTriplet(a, b, c).Add(randomTriplet(d, e, g)).Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMaxUpperBoundsBoth(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		t1 := randomTriplet(a, b, c)
		t2 := randomTriplet(d, e, g)
		m := t1.Max(t2)
		return m.Lo >= t1.Lo && m.Lo >= t2.Lo && m.Hi >= t1.Hi && m.Hi >= t2.Hi && m.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropProbLEMedianBracketsMode(t *testing.T) {
	// For any valid triangular distribution P(X <= Lo)=0, P(X <= Hi)=1.
	f := func(a, b, c float64) bool {
		tr := randomTriplet(a, b, c)
		if tr.IsExact() {
			return tr.ProbLE(tr.ML) == 1
		}
		return tr.ProbLE(tr.Lo-1) == 0 && tr.ProbLE(tr.Hi+1) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
