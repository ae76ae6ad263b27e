package geom

import (
	"math"
	"sync"
	"sync/atomic"

	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// This file implements the certified float screens that run in front of
// the exact LP predicates: a scratch-buffer Wolfe min-norm solver that
// produces either a convex-combination witness (membership accept) or a
// separating direction (membership / hull-separation reject), each
// verified against the ORIGINAL input data with an explicit margin over
// the LP solver's feasibility tolerance. A screen decision is therefore
// always the decision the exact LP would have made; anything inside the
// margin band falls through to the LP. See DESIGN.md §10.2 for the
// soundness argument relating the margins below to the simplex phase-1
// acceptance threshold (1e-7 * feasScale).

// PrefilterMargin is the shared slack between a certified float screen
// and the LP solver's feasibility tolerance: screens only accept when a
// verified witness beats the LP acceptance threshold (1e-7 relative) by
// at least a factor 1/PrefilterMargin-to-1e-7, and the bounding-box
// prefilters (here and in internal/relax) treat boxes separated by less
// than this margin as overlapping. Hoisted from the duplicated 1e-9
// literals of the PR-5 prefilters; the floateq analyzer exempts it by
// name.
const PrefilterMargin = 1e-9

// filterAcceptTol is the maximum exactly-recomputed constraint
// violation of a screen witness for a certified accept. The LP accepts
// at 1e-7*feasScale, so a witness within filterAcceptTol*feasScale
// leaves two orders of magnitude of slack.
const filterAcceptTol = PrefilterMargin

// filterRejectMargin is the minimum certified separation (relative to
// the data scale) for a screen reject. The LP declares infeasibility
// above 1e-7*feasScale of phase-1 residual; a separation of
// filterRejectMargin*scale forces at least ~half that margin of
// residual, two orders of magnitude above the threshold.
const filterRejectMargin = 1e-5

// screenBudget is the Wolfe major-cycle budget of a screen in dimension
// d: a screen that needs more cycles is near the boundary, where the
// exact LP decides anyway.
func screenBudget(d int) int { return 2*d + 12 }

// sepMaxPoints caps the Minkowski-difference size of the hull
// separation screen; larger pairs skip the screen rather than risk a
// screen costlier than the LP it guards.
const sepMaxPoints = 96

// filteredPredicates gates every certified screen; disable to time or
// parity-test the pure exact-LP path (the PR-5 code path).
var filteredPredicates atomic.Bool

func init() { filteredPredicates.Store(true) }

// SetFilteredPredicates enables or disables the certified float screens
// in front of the exact predicates. Decisions are identical either way;
// only the code path (and speed) changes.
func SetFilteredPredicates(on bool) { filteredPredicates.Store(on) }

// FilteredPredicatesEnabled reports whether the certified screens run.
func FilteredPredicatesEnabled() bool { return filteredPredicates.Load() }

// Screen observability: accepts and rejects are decisions made without
// an LP; fallbacks paid the screen and still ran the exact LP.
var (
	filterAccepts   = metrics.DefaultCounter("geom_filter_accepts_total")
	filterRejects   = metrics.DefaultCounter("geom_filter_rejects_total")
	filterFallbacks = metrics.DefaultCounter("geom_filter_fallbacks_total")
	sepRejects      = metrics.DefaultCounter("geom_filter_separation_rejects_total")
	sepFallbacks    = metrics.DefaultCounter("geom_filter_separation_fallbacks_total")
)

// FilterScratch holds the reusable buffers of one Wolfe run (a screen
// evaluation or an L2 distance query): the flattened working point set,
// the Wolfe corral state and the KKT system of the corral projection. A
// scratch must not be shared between concurrent goroutines; the kernel
// sweeps keep one per worker.
type FilterScratch struct {
	pts    []float64 // flattened n x d working points
	x      []float64 // current min-norm iterate
	lam    []float64 // corral weights
	alpha  []float64 // affine minimizer candidate
	corral []int
	gram   []float64 // (k+1) x (k+2) augmented KKT system
}

var filterScratchPool = sync.Pool{New: func() any { return new(FilterScratch) }}

// GetFilterScratch fetches a scratch from the pool.
func GetFilterScratch() *FilterScratch { return filterScratchPool.Get().(*FilterScratch) }

// Release returns the scratch to the pool.
func (sc *FilterScratch) Release() { filterScratchPool.Put(sc) }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// wolfeMinNorm runs Wolfe's min-norm-point algorithm over the n points
// of dimension d flattened in sc.pts, leaving the final iterate in
// sc.x and the corral weights in (sc.corral, sc.lam). It is the
// package's one Wolfe solver: allocation-free once the scratch has
// grown, with an optimality gap near machine precision (the screens
// need residuals there) and a hard major-cycle budget. The screens pass
// a short budget, distance queries distBudget; on budget exhaustion the
// iterate is simply the best found, and every caller reads an explicit
// convex combination from the corral, never a claimed optimum.
func (sc *FilterScratch) wolfeMinNorm(n, d, budget int) {
	pt := func(i int) []float64 { return sc.pts[i*d : (i+1)*d] }
	sc.x = growF(sc.x, d)

	scale2 := 1.0
	best, bestN := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		p := pt(i)
		nn := 0.0
		for _, v := range p {
			nn += v * v
		}
		if nn > scale2 {
			scale2 = nn
		}
		if nn < bestN {
			best, bestN = i, nn
		}
	}
	gapTol := 1e-13 * scale2

	sc.corral = append(sc.corral[:0], best)
	sc.lam = append(sc.lam[:0], 1)
	copy(sc.x, pt(best))

	for major := 0; major < budget; major++ {
		// Most violating vertex: minimize <x, p_j>.
		j, jv := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			p := pt(i)
			v := 0.0
			for k, xv := range sc.x {
				v += xv * p[k]
			}
			if v < jv {
				j, jv = i, v
			}
		}
		xx := 0.0
		for _, xv := range sc.x {
			xx += xv * xv
		}
		if jv > xx-gapTol {
			return // optimal within the screen gap
		}
		inCorral := false
		for _, c := range sc.corral {
			if c == j {
				inCorral = true
				break
			}
		}
		if inCorral {
			return // numerical stall
		}
		sc.corral = append(sc.corral, j)
		sc.lam = append(sc.lam, 0)

		// Minor cycles: project onto the corral's affine hull, walk back
		// to the last convex point and drop vanished vertices.
		for minor := 0; minor <= d+3; minor++ {
			if !sc.affineMinNorm(d) {
				sc.corral = sc.corral[:len(sc.corral)-1]
				sc.lam = sc.lam[:len(sc.lam)-1]
				break
			}
			const posEps = 1e-11
			allPos := true
			for _, a := range sc.alpha {
				if a <= posEps {
					allPos = false
					break
				}
			}
			if allPos {
				copy(sc.lam, sc.alpha)
				break
			}
			theta := 1.0
			for i, a := range sc.alpha {
				if a < posEps && sc.lam[i] > a {
					if t := sc.lam[i] / (sc.lam[i] - a); t < theta {
						theta = t
					}
				}
			}
			// Blend and compact in place.
			keep := 0
			for i := range sc.lam {
				nl := (1-theta)*sc.lam[i] + theta*sc.alpha[i]
				if nl > posEps {
					sc.lam[keep] = nl
					sc.corral[keep] = sc.corral[i]
					keep++
				}
			}
			if keep == 0 {
				sc.corral[0] = sc.corral[len(sc.corral)-1]
				sc.lam[0] = 1
				keep = 1
			}
			sc.corral = sc.corral[:keep]
			sc.lam = sc.lam[:keep]
		}
		// Recompute x from the corral.
		for k := range sc.x {
			sc.x[k] = 0
		}
		for i, c := range sc.corral {
			p := pt(c)
			l := sc.lam[i]
			for k := range sc.x {
				sc.x[k] += l * p[k]
			}
		}
	}
}

// affineMinNorm solves the corral's KKT system (Gram matrix bordered by
// the affine constraint) by in-place Gaussian elimination with partial
// pivoting, writing the affine minimizer into sc.alpha. ok=false on a
// numerically singular (affinely dependent) corral.
func (sc *FilterScratch) affineMinNorm(d int) bool {
	k := len(sc.corral)
	kk := k + 1
	cols := kk + 1 // augmented
	sc.gram = growF(sc.gram, kk*cols)
	g := sc.gram
	pt := func(i int) []float64 { return sc.pts[sc.corral[i]*d : (sc.corral[i]+1)*d] }
	diagMax := 1.0
	for i := 0; i < k; i++ {
		pi := pt(i)
		for j := i; j < k; j++ {
			pj := pt(j)
			dot := 0.0
			for c := range pi {
				dot += pi[c] * pj[c]
			}
			g[i*cols+j] = dot
			g[j*cols+i] = dot
			if i == j && dot > diagMax {
				diagMax = dot
			}
		}
		g[i*cols+k] = 1
		g[k*cols+i] = 1
		g[i*cols+kk] = 0
	}
	g[k*cols+k] = 0
	g[k*cols+kk] = 1

	if !gaussSolve(g, kk, cols) {
		// Ridge fallback for affinely dependent corrals: a tiny Tikhonov
		// term on the Gram block makes the system solvable and biases the
		// answer toward the minimum-norm multiplier, which is what Wolfe's
		// method wants anyway.
		for i := 0; i < k; i++ {
			pi := pt(i)
			for j := i; j < k; j++ {
				pj := pt(j)
				dot := 0.0
				for c := range pi {
					dot += pi[c] * pj[c]
				}
				if i == j {
					dot += 1e-10 * diagMax
				}
				g[i*cols+j] = dot
				g[j*cols+i] = dot
			}
			g[i*cols+k] = 1
			g[k*cols+i] = 1
			g[i*cols+kk] = 0
		}
		g[k*cols+k] = 0
		g[k*cols+kk] = 1
		if !gaussSolve(g, kk, cols) {
			return false
		}
	}
	sc.alpha = growF(sc.alpha, k)
	for i := 0; i < k; i++ {
		sc.alpha[i] = g[i*cols+kk]
	}
	return true
}

// gaussSolve reduces the n x (cols) augmented system in place with
// partial pivoting; the solution lands in column cols-1. ok=false when
// a pivot is numerically zero.
func gaussSolve(g []float64, n, cols int) bool {
	for c := 0; c < n; c++ {
		// Partial pivot.
		pr, pv := c, math.Abs(g[c*cols+c])
		for r := c + 1; r < n; r++ {
			if a := math.Abs(g[r*cols+c]); a > pv {
				pr, pv = r, a
			}
		}
		if pv < 1e-13 {
			return false
		}
		if pr != c {
			for j := 0; j < cols; j++ {
				g[pr*cols+j], g[c*cols+j] = g[c*cols+j], g[pr*cols+j]
			}
		}
		inv := 1 / g[c*cols+c]
		for j := c; j < cols; j++ {
			g[c*cols+j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == c {
				continue
			}
			f := g[r*cols+c]
			if f == 0 {
				continue
			}
			for j := c; j < cols; j++ {
				g[r*cols+j] -= f * g[c*cols+j]
			}
		}
	}
	return true
}

// hullMembershipScreen attempts to decide q in conv(s) without an LP.
// decided=false means the screen could not certify either answer with
// margin and the caller must run the exact LP. Both certificates are
// verified against the original (q, s) data:
//
//   - accept: the corral weights form a convex combination whose
//     exactly-recomputed residual is under filterAcceptTol*feasScale —
//     the LP's phase 1 can only do better, so it accepts too;
//   - reject: the min-norm direction g = x separates q from every point
//     of s by at least filterRejectMargin relative margin, forcing a
//     phase-1 residual the LP's 1e-7 acceptance cannot absorb.
func hullMembershipScreen(q vec.V, s *vec.Set, sc *FilterScratch) (in, decided bool) {
	n, d := s.Len(), q.Dim()
	if n == 0 || d == 0 {
		return false, false
	}
	sc.pts = growF(sc.pts, n*d)
	for i := 0; i < n; i++ {
		p := s.At(i)
		row := sc.pts[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			row[j] = p[j] - q[j]
		}
	}
	feasScale := 1.0
	for _, v := range q {
		if a := math.Abs(v); a > feasScale {
			feasScale = a
		}
	}
	sc.wolfeMinNorm(n, d, screenBudget(d))

	// Accept certificate: exact residual of the corral witness.
	wsum := 0.0
	for _, l := range sc.lam {
		wsum += l
	}
	if wsum > 0 {
		viol := math.Abs(wsum - 1)
		// Renormalized weights keep the simplex row exact; fold the
		// normalization into the residual instead.
		for j := 0; j < d; j++ {
			r := -q[j]
			for i, c := range sc.corral {
				r += (sc.lam[i] / wsum) * s.At(c)[j]
			}
			viol += math.Abs(r)
		}
		if viol <= filterAcceptTol*feasScale {
			return true, true
		}
	}

	// Reject certificate: g = x separates q from conv(s).
	gn := 0.0
	for _, v := range sc.x {
		gn += v * v
	}
	gn = math.Sqrt(gn)
	if gn > 0 {
		minDot := math.Inf(1) // min over s of <g, s_i - q>, exact from inputs
		beta := 0.0           // max |<g/|g|, s_i>|, and |<g/|g|, q>|
		qdot := 0.0
		for j := 0; j < d; j++ {
			qdot += sc.x[j] * q[j]
		}
		for i := 0; i < n; i++ {
			p := s.At(i)
			dot := 0.0
			for j := 0; j < d; j++ {
				dot += sc.x[j] * p[j]
			}
			if v := dot - qdot; v < minDot {
				minDot = v
			}
			if a := math.Abs(dot) / gn; a > beta {
				beta = a
			}
		}
		if a := math.Abs(qdot) / gn; a > beta {
			beta = a
		}
		if minDot/gn >= filterRejectMargin*feasScale*(1+beta) {
			return false, true
		}
	}
	return false, false
}

// HullsSeparated certifies that the (delta,p)-relaxed hulls of a and b
// are disjoint (delta = 0 gives exact hulls), with enough margin that
// the exact joint feasibility LP over any family containing a and b
// must also be infeasible. It returns false whenever it cannot certify
// — a false is never evidence of intersection. p is only consulted
// when delta > 0 and must then be 1 or +Inf (the polyhedral norms of
// the relaxed-hull LP).
func HullsSeparated(a, b *vec.Set, delta, p float64, sc *FilterScratch) bool {
	if !filteredPredicates.Load() {
		return false
	}
	na, nb, d := a.Len(), b.Len(), a.Dim()
	if na == 0 || nb == 0 || d == 0 || na*nb > sepMaxPoints {
		return false
	}
	if sc == nil {
		sc = GetFilterScratch()
		defer sc.Release()
	}
	// Minkowski difference: conv(a) and conv(b) are disjoint iff 0 is
	// outside conv({a_i - b_j}).
	sc.pts = growF(sc.pts, na*nb*d)
	for i := 0; i < na; i++ {
		pa := a.At(i)
		for j := 0; j < nb; j++ {
			pb := b.At(j)
			row := sc.pts[(i*nb+j)*d : (i*nb+j+1)*d]
			for k := 0; k < d; k++ {
				row[k] = pa[k] - pb[k]
			}
		}
	}
	sc.wolfeMinNorm(na*nb, d, screenBudget(d))
	gn := 0.0
	for _, v := range sc.x {
		gn += v * v
	}
	gn = math.Sqrt(gn)
	if gn == 0 {
		sepFallbacks.Inc()
		return false
	}
	// Exact support values in direction g over the original sets.
	minA, maxB := math.Inf(1), math.Inf(-1)
	beta := 0.0
	for i := 0; i < na; i++ {
		pa := a.At(i)
		dot := 0.0
		for k := 0; k < d; k++ {
			dot += sc.x[k] * pa[k]
		}
		if dot < minA {
			minA = dot
		}
		if v := math.Abs(dot) / gn; v > beta {
			beta = v
		}
	}
	for j := 0; j < nb; j++ {
		pb := b.At(j)
		dot := 0.0
		for k := 0; k < d; k++ {
			dot += sc.x[k] * pb[k]
		}
		if dot > maxB {
			maxB = dot
		}
		if v := math.Abs(dot) / gn; v > beta {
			beta = v
		}
	}
	// Relaxed hulls inflate each support by delta * dual-norm of the
	// direction: ||g||_1 for p = inf, ||g||_inf for p = 1.
	need := 0.0
	if delta > 0 {
		dual := 0.0
		if math.IsInf(p, 1) {
			for _, v := range sc.x {
				dual += math.Abs(v)
			}
		} else {
			for _, v := range sc.x {
				if a := math.Abs(v); a > dual {
					dual = a
				}
			}
		}
		need = 2 * delta * dual / gn
	}
	feasScale := math.Max(1, delta)
	if (minA-maxB)/gn-need >= filterRejectMargin*feasScale*(1+beta) {
		sepRejects.Inc()
		return true
	}
	sepFallbacks.Inc()
	return false
}
