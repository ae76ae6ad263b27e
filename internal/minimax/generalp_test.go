package minimax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

func TestDeltaStarPDispatchesToL2(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	s := randSimplexSet(rng, 3)
	if got, want := DeltaStarP(s, 1, 2).Delta, DeltaStar2(s, 1).Delta; got != want {
		t.Fatalf("p=2 dispatch: %v vs %v", got, want)
	}
}

// TestDeltaStarDispatch pins the one norm-to-kernel dispatch: p = 2 and
// p in {1, inf} return their kernel's Result bit-for-bit, and the LP
// path, which proves no lower bound here, reports Lower 0 and Gap =
// Delta. The root TestParityDeltaStar pins the general-p branch.
func TestDeltaStarDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	s := vec.NewSet(randVec(rng, 2, 3), randVec(rng, 2, 3), randVec(rng, 2, 3))
	same := func(p float64, got, want Result) {
		t.Helper()
		ok := math.Float64bits(got.Delta) == math.Float64bits(want.Delta) &&
			math.Float64bits(got.Lower) == math.Float64bits(want.Lower) &&
			math.Float64bits(got.Gap) == math.Float64bits(want.Gap) &&
			got.Exact == want.Exact && len(got.Point) == len(want.Point)
		for k := 0; ok && k < len(want.Point); k++ {
			ok = math.Float64bits(got.Point[k]) == math.Float64bits(want.Point[k])
		}
		if !ok {
			t.Fatalf("p=%v: DeltaStar %+v, kernel %+v", p, got, want)
		}
	}
	same(2, DeltaStar(s, 1, 2), DeltaStar2(s, 1))
	for _, p := range []float64{1, math.Inf(1)} {
		delta, pt := relax.DeltaStarPoly(s, 1, p)
		same(p, DeltaStar(s, 1, p), Result{Delta: delta, Point: pt, Gap: delta})
	}
}

func TestDeltaStarPMatchesExactLPNorms(t *testing.T) {
	// For p = 1 and p = inf we have exact LP values; the generic solver
	// must agree to solver tolerance (and never undercut them: it is an
	// upper bound on the true minimum).
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 4; trial++ {
		d := 2 + rng.Intn(2)
		s := randSimplexSet(rng, d)
		for _, p := range []float64{1, math.Inf(1)} {
			exact, _ := relax.DeltaStarPoly(s, 1, p)
			got := DeltaStarP(s, 1, p).Delta
			if got < exact-1e-6 {
				t.Fatalf("p=%v: iterative %v below exact %v", p, got, exact)
			}
			if math.Abs(got-exact) > 2e-2*(1+exact) {
				t.Fatalf("p=%v: iterative %v vs exact %v", p, got, exact)
			}
		}
	}
}

func TestDeltaStarPNormOrdering(t *testing.T) {
	// dist_p decreases in p, so delta*_p does too:
	// delta*_inf <= delta*_4 <= delta*_2 <= delta*_1 (within tolerance).
	rng := rand.New(rand.NewSource(83))
	s := randSimplexSet(rng, 3)
	tol := 5e-3
	dInf := DeltaStarP(s, 1, math.Inf(1)).Delta
	d4 := DeltaStarP(s, 1, 4).Delta
	d2 := DeltaStarP(s, 1, 2).Delta
	d1 := DeltaStarP(s, 1, 1).Delta
	if dInf > d4+tol || d4 > d2+tol || d2 > d1+tol {
		t.Fatalf("ordering violated: inf=%v 4=%v 2=%v 1=%v", dInf, d4, d2, d1)
	}
}

func TestDeltaStarPTheorem14Bound(t *testing.T) {
	// The true delta*_p must respect the Theorem 14 transferred bound
	// d^(1/2-1/p) * kappa * maxEdge_p with kappa = 1/(n-2).
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 3; trial++ {
		d := 3
		n := d + 1
		s := randSimplexSet(rng, d)
		for _, p := range []float64{3, 4} {
			dstar := DeltaStarP(s, 1, p).Delta
			nonFaulty := s.Without(n - 1)
			bound := HolderScale(d, p) / float64(n-2) * nonFaulty.MaxEdge(p)
			if dstar >= bound {
				t.Fatalf("p=%v: delta*_p=%v >= bound=%v", p, dstar, bound)
			}
		}
	}
}

func TestLpGradient(t *testing.T) {
	g := lpGradient(vec.Of(3, -4), 2)
	if math.Abs(g[0]-0.6) > 1e-12 || math.Abs(g[1]+0.8) > 1e-12 {
		t.Errorf("L2 gradient = %v", g)
	}
	gi := lpGradient(vec.Of(1, -5, 2), math.Inf(1))
	if gi[0] != 0 || gi[1] != -1 || gi[2] != 0 {
		t.Errorf("Linf subgradient = %v", gi)
	}
	gz := lpGradient(vec.New(2), 3)
	if gz[0] != 0 || gz[1] != 0 {
		t.Errorf("zero-residual gradient = %v", gz)
	}
}

func TestDeltaStarPValidation(t *testing.T) {
	s := vec.NewSet(vec.Of(0), vec.Of(1))
	for name, fn := range map[string]func(){
		"bad f": func() { DeltaStarP(s, 0, 3) },
		"bad p": func() { DeltaStarP(s, 1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
