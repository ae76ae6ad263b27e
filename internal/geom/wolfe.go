package geom

import (
	"math"

	"relaxedbvc/internal/vec"
)

// The L2 point-to-hull distance and the min-norm point are thin
// wrappers over the one Wolfe solver in filter.go (wolfeMinNorm), run
// with the distance budget below instead of the screens' short one.
// Both report the norm of an explicit hull point — a convex combination
// of the input points with the corral weights — so a distance is never
// below the true one by more than float rounding.

// distBudget is the Wolfe major-cycle budget of a distance query over n
// points: enough for finite termination on every non-degenerate input.
func distBudget(n int) int { return 200 + 20*n }

// Dist2 returns the Euclidean distance from q to conv(s) and the nearest
// point of the hull (memoized), computed with Wolfe's min-norm-point
// algorithm applied to the translated set {s_i - q}.
func Dist2(q vec.V, s *vec.Set) (float64, vec.V) {
	if s.Len() == 0 {
		panic("geom: Dist2 on empty set")
	}
	return cachedDist(opDist2, q, s, 0, func() (float64, vec.V) { return dist2Pooled(q, s) })
}

// Dist2Uncached is Dist2 bypassing the memo cache. Iterative solvers
// whose inner loops query a fresh point every step (so keys never
// repeat) should use it, or FilterScratch.Dist2 to avoid allocating.
func Dist2Uncached(q vec.V, s *vec.Set) (float64, vec.V) {
	if s.Len() == 0 {
		panic("geom: Dist2 on empty set")
	}
	return dist2Pooled(q, s)
}

func dist2Pooled(q vec.V, s *vec.Set) (float64, vec.V) {
	sc := GetFilterScratch()
	defer sc.Release()
	near := vec.New(q.Dim())
	return sc.Dist2(q, s, near), near
}

// Dist2 returns the Euclidean distance from q to conv(s) and writes the
// nearest hull point into near (length q.Dim()). Once the scratch has
// grown to the set's size it allocates nothing, which is what the δ*
// solvers' inner loops need. s must be non-empty.
func (sc *FilterScratch) Dist2(q vec.V, s *vec.Set, near vec.V) float64 {
	n, d := s.Len(), q.Dim()
	sc.pts = growF(sc.pts, n*d)
	for i := 0; i < n; i++ {
		p := s.At(i)
		row := sc.pts[i*d : (i+1)*d]
		for j := range row {
			row[j] = p[j] - q[j]
		}
	}
	sc.wolfeMinNorm(n, d, distBudget(n))
	sum := 0.0
	for _, l := range sc.lam {
		sum += l
	}
	clear(near)
	for i, c := range sc.corral {
		near.AXPY(sc.lam[i]/sum, s.At(c))
	}
	dist := 0.0
	for j, v := range near {
		r := q[j] - v
		dist += r * r
	}
	return math.Sqrt(dist)
}

// MinNormPoint returns the point of minimum Euclidean norm in the convex
// hull of pts, along with its convex weights over pts (zero for points not
// in the final corral).
func MinNormPoint(pts []vec.V) (vec.V, []float64) {
	n := len(pts)
	if n == 0 {
		panic("geom: MinNormPoint on empty set")
	}
	d := pts[0].Dim()
	sc := GetFilterScratch()
	defer sc.Release()
	sc.pts = growF(sc.pts, n*d)
	for i, p := range pts {
		copy(sc.pts[i*d:(i+1)*d], p)
	}
	sc.wolfeMinNorm(n, d, distBudget(n))
	sum := 0.0
	for _, l := range sc.lam {
		sum += l
	}
	x := vec.New(d)
	weights := make([]float64, n)
	for i, c := range sc.corral {
		weights[c] = sc.lam[i] / sum
		x.AXPY(weights[c], pts[c])
	}
	return x, weights
}
