package minimax

import (
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/vec"
)

func randSet(rng *rand.Rand, n, d int) *vec.Set {
	pts := make([]vec.V, n)
	for i := range pts {
		pts[i] = randVec(rng, d, 2)
	}
	return vec.NewSet(pts...)
}

// checkCertified asserts the solver's interval is consistent: 0 <=
// Lower <= Delta, Gap = Delta - Lower (to rounding) within gapTol*diam,
// and Delta is what the family really attains at Point.
func checkCertified(t *testing.T, tag string, res Result, fam []*vec.Set, diam, gapTol float64) {
	t.Helper()
	if res.Lower < 0 || res.Lower > res.Delta || math.Abs(res.Gap-(res.Delta-res.Lower)) > 1e-15*res.Delta {
		t.Fatalf("%s: inconsistent interval: lower=%v delta=%v gap=%v", tag, res.Lower, res.Delta, res.Gap)
	}
	if res.Gap > gapTol*diam {
		t.Fatalf("%s: gap %v > %v*diam (diam %v)", tag, res.Gap, gapTol, diam)
	}
	if f := MaxDist2(res.Point, fam); math.Abs(f-res.Delta) > 1e-12*diam {
		t.Fatalf("%s: Delta %v but F(Point) = %v", tag, res.Delta, f)
	}
}

// The cutting-plane solver certifies a gap of 1e-8 of the input
// diameter on every instance, well inside its round cap.
func TestMinMaxDist2CertifiesGap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	worst := 0
	for trial := 0; trial < 1000; trial++ {
		s := randSet(rng, 5+rng.Intn(3), 3)
		fam := droppedSubsets(s, 2)
		res, rounds := minMaxDist2(fam, maxCutRounds, nil)
		if rounds >= maxCutRounds {
			t.Fatalf("trial %d: hit the round cap (gap %v)", trial, res.Gap)
		}
		worst = max(worst, rounds)
		checkCertified(t, "trial", res, fam, s.MaxEdge(2), 1e-8)
	}
	t.Logf("most LP rounds on one instance: %d", worst)
}

// Lemma 13: the inradius is delta*_2 for f = 1, n = d+1, so it must lie
// in the certified interval of the cutting-plane solver.
func TestCertifiedIntervalContainsInradius(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(3)
		s := randSimplexSet(rng, d)
		r := DeltaStar2(s, 1).Delta
		res := DeltaStar2Iterative(s, 1)
		diam := s.MaxEdge(2)
		checkCertified(t, "simplex", res, droppedSubsets(s, 1), diam, 1e-8)
		if r < res.Lower-1e-12*diam || r > res.Delta+1e-12*diam {
			t.Fatalf("d=%d: inradius %v outside [%v, %v]", d, r, res.Lower, res.Delta)
		}
	}
}

// Degenerate families: identical points, two points, and coplanar
// inputs in R^3, which must match the same points in planar coordinates.
func TestMinMaxDist2DegenerateCertified(t *testing.T) {
	same := vec.NewSet(vec.Of(1, 2, 3), vec.Of(1, 2, 3), vec.Of(1, 2, 3))
	if res := DeltaStar2(same, 1); res.Delta != 0 || res.Lower != 0 || res.Gap != 0 {
		t.Errorf("identical points: %+v", res)
	}

	two := vec.NewSet(vec.Of(-1, 0, 2), vec.Of(3, 0, 2))
	res := MinMaxDist2(droppedSubsets(two, 1))
	if res.Lower > 2 || res.Delta < 2 || res.Gap > 4e-8 {
		t.Errorf("two points: want 2 in [%v, %v], gap %v", res.Lower, res.Delta, res.Gap)
	}

	// The plane z = 0 rotated about the x axis: an isometric embedding
	// of R^2, so delta*_2 is unchanged.
	rng := rand.New(rand.NewSource(49))
	c, sn := math.Cos(0.7), math.Sin(0.7)
	for trial := 0; trial < 20; trial++ {
		flat := randSet(rng, 6, 2)
		up := make([]vec.V, flat.Len())
		for i, p := range flat.Points() {
			up[i] = vec.Of(p[0]+5, c*p[1], sn*p[1])
		}
		s3 := vec.NewSet(up...)
		r2, r3 := DeltaStar2(flat, 2), DeltaStar2(s3, 2)
		diam := flat.MaxEdge(2)
		checkCertified(t, "coplanar", r3, droppedSubsets(s3, 2), diam, 1e-8)
		if r3.Lower > r2.Delta+1e-12*diam || r2.Lower > r3.Delta+1e-12*diam {
			t.Fatalf("coplanar: R^3 interval [%v, %v] misses R^2 interval [%v, %v]",
				r3.Lower, r3.Delta, r2.Lower, r2.Delta)
		}
	}
}

// A solve stopped at its round cap still reports an honest interval: it
// contains the converged one, and Gap says how wide it is.
func TestMinMaxDist2CapReportsGap(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	s := randSet(rng, 7, 3)
	fam := droppedSubsets(s, 2)
	diam := s.MaxEdge(2)
	capped, rounds := minMaxDist2(fam, 1, nil)
	if rounds != 1 {
		t.Fatalf("ran %d rounds under a cap of 1", rounds)
	}
	full, _ := minMaxDist2(fam, maxCutRounds, nil)
	checkCertified(t, "capped", capped, fam, diam, 1)
	if capped.Gap <= 1e-8*diam {
		t.Fatalf("one round already converged (gap %v); pick a harder instance", capped.Gap)
	}
	if capped.Lower > full.Delta || capped.Delta < full.Lower {
		t.Fatalf("capped interval [%v, %v] misses converged [%v, %v]",
			capped.Lower, capped.Delta, full.Lower, full.Delta)
	}
}

// Metamorphic: delta*_2(aS + b) = |a| delta*_2(S) for extreme scales and
// offsets, and delta*_2 does not depend on the order of the inputs. The
// reference set is the exact preimage of the rounded scaled inputs, so
// the check measures the solver, not the representation of aS + b.
func TestDeltaStar2ScaleAndPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const d, n, f = 3, 7, 2
	for trial := 0; trial < 10; trial++ {
		base := randSet(rng, n, d)
		for _, a := range []float64{1e-6, 1e6, -1e6} {
			b := vec.New(d)
			for j := range b {
				b[j] = (2*rng.Float64() - 1) * 1e6
			}
			scaled := make([]vec.V, n)
			pre := make([]vec.V, n)
			for i, p := range base.Points() {
				scaled[i] = p.Scale(a).Add(b)
				pre[i] = scaled[i].Sub(b).Scale(1 / a)
			}
			want := math.Abs(a) * DeltaStar2(vec.NewSet(pre...), f).Delta
			got := DeltaStar2(vec.NewSet(scaled...), f).Delta
			if math.Abs(got-want) > 1e-7*want {
				t.Fatalf("a=%g: delta*(aS+b) = %v, |a| delta*(S) = %v (rel %.2e)",
					a, got, want, math.Abs(got-want)/want)
			}
		}
		perm := rng.Perm(n)
		pts := make([]vec.V, n)
		for i, j := range perm {
			pts[i] = base.At(j)
		}
		want := DeltaStar2(base, f).Delta
		if got := DeltaStar2(vec.NewSet(pts...), f).Delta; math.Abs(got-want) > 1e-7*want {
			t.Fatalf("permuted: %v vs %v", got, want)
		}
	}
}
