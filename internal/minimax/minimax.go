// Package minimax computes delta*_2(S): the smallest delta for which
// Gamma_(delta,2)(S) (the intersection of the (delta,2)-relaxed hulls of
// all (|S|-f)-subsets of S) is non-empty. Per Section 9 of the paper,
//
//	delta*(S) = min_{p in R^d} max_i dist_2(p, H(P_i)),
//
// a convex minimax problem. Two solvers are provided:
//
//   - the exact closed form of Lemma 13 (inscribed-sphere radius) for the
//     f = 1, n = d+1, affinely independent case, together with the
//     Theorem 8 projection shortcut (delta* = 0) for dependent inputs; and
//   - a certified cutting-plane solver (Kelley's method over the lp
//     package) valid for every n, f, which returns an upper bound attained
//     at its point together with a proven lower bound.
//
// The cutting-plane solver is cross-validated against the closed form
// (E7) and against the exact LP values of delta*_1 and delta*_inf, which
// bracket delta*_2.
package minimax

import (
	"math"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/linalg"
	"relaxedbvc/internal/lp"
	"relaxedbvc/internal/par"
	"relaxedbvc/internal/simplexgeo"
	"relaxedbvc/internal/vec"
)

// minParallelFamily is the smallest subset family for which the δ*
// solvers fan the per-set hull-distance solves out over the kernel
// workers; below it the hand-off costs more than the solves. Every
// parallel path reduces in index order with the same comparisons as the
// sequential loop, so results are bit-identical for any worker count.
const minParallelFamily = 8

// distHit is one per-set distance probe result.
type distHit struct {
	d    float64
	near vec.V
}

// Result is the outcome of a delta* computation. The true delta* lies
// in [Lower, Delta].
type Result struct {
	Delta float64 // the minimax value delta*: an upper bound, attained at Point
	Point vec.V   // a point attaining Delta
	Lower float64 // a proven lower bound on delta* (0 when the solver has none)
	Gap   float64 // Delta - Lower, honest even when a solver stopped at its cap
	Exact bool    // true when computed by closed form rather than iteration
}

// MaxDist2 evaluates F(x) = max over the family of dist_2(x, H(set)).
// It bypasses the geometry memo cache: every solver iterate is a fresh
// x, so those lookups would only ever pay encoding cost, never hit.
func MaxDist2(x vec.V, sets []*vec.Set) float64 {
	sc := geom.GetFilterScratch()
	defer sc.Release()
	near := vec.New(x.Dim())
	m := 0.0
	for _, s := range sets {
		if d := sc.Dist2(x, s, near); d > m {
			m = d
		}
	}
	return m
}

// Cutting-plane solver constants, all on the normalized (unit-diameter)
// family.
const (
	// cutGapTol stops the solver once the upper and lower bounds are
	// this close.
	cutGapTol = 1e-8
	// cutSlackTol prunes, after each LP, every cut slacker than this at
	// the LP optimum, except the newest round. Without pruning the dense
	// LP can keep returning the same far iterate under hundreds of
	// near-parallel cuts.
	cutSlackTol = 1e-6
	// cutMinDist skips the cut of a piece that already (numerically)
	// contains the iterate: its direction would be rounding noise.
	cutMinDist = 1e-12
	// maxCutRounds caps the LP rounds of one solve.
	maxCutRounds = 200
)

// MinMaxDist2 minimizes F(x) = max_i dist_2(x, H(sets_i)) over x in R^d
// by Kelley's cutting-plane method, starting from the centroid of the
// family's distinct points and the optional seed points. Every piece
// evaluated at an iterate x contributes the support-function cut
//
//	t >= g.y - max_{p in sets_i} g.p,  g = (x - near_i)/|x - near_i|,
//
// a global minorant of dist_2(y, H(sets_i)) for any unit g, however
// inexact the Wolfe solve that produced near_i. An LP over the cuts,
// restricted to the inputs' bounding box (which holds an optimum:
// projecting onto conv of all inputs brings x closer to every hull),
// gives the next iterate and a proven lower bound. The solver stops
// when the bounds are within cutGapTol of the unit diameter, or after
// maxCutRounds LPs; Result.Gap reports the remaining gap either way.
func MinMaxDist2(sets []*vec.Set, seedPoints ...vec.V) Result {
	res, _ := minMaxDist2(sets, maxCutRounds, seedPoints)
	return res
}

// minMaxDist2 is MinMaxDist2 with an explicit round cap; it also
// returns the number of LP rounds run.
func minMaxDist2(sets []*vec.Set, maxRounds int, seeds []vec.V) (Result, int) {
	if len(sets) == 0 {
		panic("minimax: empty family")
	}
	cp := newCutPlane(sets)
	if cp.diam == 0 {
		// All inputs identical: that point achieves delta = 0.
		return Result{Point: sets[0].At(0).Clone()}, 0
	}
	defer cp.release()
	cp.eval(vec.New(cp.d))
	for _, s := range seeds {
		y := s.Sub(cp.center)
		cp.eval(y.Scale(1 / cp.diam))
	}
	rounds := 0
	for ; rounds < maxRounds && cp.ub-cp.lb > cutGapTol; rounds++ {
		y, ok := cp.solveLP()
		if !ok || y.Equal(cp.last) {
			// An LP failure or a repeated iterate: further rounds would
			// only repeat this one.
			break
		}
		cp.eval(y)
	}
	return cp.result(), rounds
}

// cutPlane is the state of one cutting-plane solve over a family
// translated by its centroid and scaled to unit diameter.
type cutPlane struct {
	sets       []*vec.Set // the normalized family
	d          int
	center     vec.V
	diam       float64
	lo, hi     vec.V // bounding box of the normalized points
	ub, lb     float64
	best, last vec.V // the iterate attaining ub; the last one evaluated
	dist       []float64
	near       []float64 // per-piece nearest hull points, d apiece
	g          []float64 // cut directions, d apiece
	h          []float64 // cut offsets: the pieces' support values at g
	round      []int     // the evaluation round that added each cut
	ref, row   []float64 // LP reference point and row buffer
	rounds     int
	prob       *lp.Problem
	obj        []float64
	workers    int
	scs        []*geom.FilterScratch // one per worker
}

// newCutPlane normalizes the family: the centroid of its distinct
// points moves to the origin and their diameter becomes 1, so every
// tolerance of the solver, the Wolfe calls and the LP applies to
// unit-scale data.
func newCutPlane(sets []*vec.Set) *cutPlane {
	d := sets[0].Dim()
	var uniq []vec.V
	var ref []int // index into uniq of each family point, in order
	for _, s := range sets {
		for _, p := range s.Points() {
			u := 0
			for u < len(uniq) && !uniq[u].Equal(p) {
				u++
			}
			if u == len(uniq) {
				uniq = append(uniq, p)
			}
			ref = append(ref, u)
		}
	}
	cp := &cutPlane{d: d, center: vec.Mean(uniq), diam: vec.NewSet(uniq...).MaxEdge(2)}
	if cp.diam == 0 {
		return cp
	}
	cp.lo, cp.hi = vec.New(d), vec.New(d)
	norm := make([]vec.V, len(uniq))
	for u, p := range uniq {
		y := p.Sub(cp.center).Scale(1 / cp.diam)
		for j, v := range y {
			if u == 0 || v < cp.lo[j] {
				cp.lo[j] = v
			}
			if u == 0 || v > cp.hi[j] {
				cp.hi[j] = v
			}
		}
		norm[u] = y
	}
	k := 0
	cp.sets = make([]*vec.Set, len(sets))
	for i, s := range sets {
		pts := make([]vec.V, s.Len())
		for j := range pts {
			pts[j] = norm[ref[k]]
			k++
		}
		cp.sets[i] = vec.NewSet(pts...)
	}
	m := len(sets)
	cp.ub, cp.lb = math.Inf(1), 0
	cp.best, cp.last = vec.New(d), vec.New(d)
	cp.dist = make([]float64, m)
	cp.near = make([]float64, m*d)
	cp.prob = lp.NewProblem(d + 1)
	cp.obj = make([]float64, d+1)
	cp.obj[d] = 1
	cp.ref, cp.row = make([]float64, d), make([]float64, d+1)
	cp.workers = 1
	if w := par.KernelWorkers(); w > 1 && m >= minParallelFamily {
		cp.workers = w
	}
	cp.scs = make([]*geom.FilterScratch, cp.workers)
	for w := range cp.scs {
		cp.scs[w] = geom.GetFilterScratch()
	}
	return cp
}

func (cp *cutPlane) release() {
	for _, sc := range cp.scs {
		sc.Release()
	}
}

// eval evaluates every piece at y (on the kernel workers for large
// families, each piece writing only its own slots), updates the upper
// bound and appends one cut per piece, in index order.
func (cp *cutPlane) eval(y vec.V) {
	d := cp.d
	probe := func(w, i int) {
		cp.dist[i] = cp.scs[w].Dist2(y, cp.sets[i], cp.near[i*d:(i+1)*d])
	}
	if cp.workers > 1 {
		par.ForEachW(len(cp.sets), cp.workers, probe)
	} else {
		for i := range cp.sets {
			probe(0, i)
		}
	}
	cp.rounds++
	copy(cp.last, y)
	f := 0.0
	for i, di := range cp.dist {
		f = math.Max(f, di)
		if di <= cutMinDist {
			continue
		}
		near := cp.near[i*d : (i+1)*d]
		cp.g = append(cp.g, make([]float64, d)...)
		g := vec.V(cp.g[len(cp.g)-d:])
		for j := range g {
			g[j] = y[j] - near[j]
		}
		gn := g.Norm2()
		for j := range g {
			g[j] /= gn
		}
		h := math.Inf(-1)
		for _, p := range cp.sets[i].Points() {
			h = math.Max(h, g.Dot(p))
		}
		cp.h = append(cp.h, h)
		cp.round = append(cp.round, cp.rounds)
	}
	if f < cp.ub {
		cp.ub = f
		copy(cp.best, y)
	}
}

// solveLP minimizes t over the cuts t >= g.y - h within the bounding
// box, raises the lower bound to the LP value, prunes the slack cuts of
// older rounds and returns the LP's y as the next iterate. ok=false when
// the LP did not solve to optimality.
//
// The LP is stated around a reference point r in the box, with free
// variables u = y - r and s = T - t, where T is the cut model's value at
// r. Every row then has a non-negative right-hand side, so the slack
// basis is feasible and the simplex needs no phase-1 artificials: those
// would let the solution violate a cut by up to the LP's feasibility
// tolerance and stall the bounds well above cutGapTol.
func (cp *cutPlane) solveLP() (vec.V, bool) {
	d := cp.d
	r := cp.ref
	for j := range r {
		r[j] = math.Min(math.Max(cp.best[j], cp.lo[j]), cp.hi[j])
	}
	top := 0.0 // T: the model's value at r (t >= 0 is a valid cut too)
	for k := range cp.h {
		top = math.Max(top, cp.cutAt(k, r))
	}
	p := cp.prob
	p.Reset(d + 1)
	for j := 0; j <= d; j++ {
		p.SetFree(j)
	}
	p.SetObjective(cp.obj, lp.Maximize)
	row := cp.row
	for k := range cp.h {
		copy(row, cp.g[k*d:(k+1)*d])
		row[d] = 1
		p.AddConstraint(row, lp.LE, math.Max(0, top-cp.cutAt(k, r)))
	}
	clear(row)
	for j := 0; j < d; j++ {
		row[j] = 1
		p.AddConstraint(row, lp.LE, cp.hi[j]-r[j])
		row[j] = -1
		p.AddConstraint(row, lp.LE, r[j]-cp.lo[j])
		row[j] = 0
	}
	row[d] = 1
	p.AddConstraint(row, lp.LE, top)
	res, err := p.Solve()
	if err != nil || res.Status != lp.Optimal {
		return nil, false
	}
	y := vec.V(res.X[:d])
	for j := range y {
		y[j] += r[j]
	}
	t := top - res.X[d]
	cp.lb = math.Max(cp.lb, t)
	keep := 0
	for k, h := range cp.h {
		if cp.round[k] != cp.rounds && t-cp.cutAt(k, y) > cutSlackTol {
			continue
		}
		copy(cp.g[keep*d:(keep+1)*d], cp.g[k*d:(k+1)*d])
		cp.h[keep], cp.round[keep] = h, cp.round[k]
		keep++
	}
	cp.g, cp.h, cp.round = cp.g[:keep*d], cp.h[:keep], cp.round[:keep]
	return y, true
}

// cutAt is the value g_k.y - h_k of cut k at y.
func (cp *cutPlane) cutAt(k int, y vec.V) float64 {
	return vec.V(cp.g[k*cp.d:(k+1)*cp.d]).Dot(y) - cp.h[k]
}

// result maps the bounds and the best iterate back to input coordinates.
func (cp *cutPlane) result() Result {
	gap := cp.diam * (cp.ub - math.Min(cp.lb, cp.ub))
	delta := cp.diam * cp.ub
	return Result{
		Delta: delta,
		Point: cp.center.Add(cp.best.Scale(cp.diam)),
		Lower: delta - gap,
		Gap:   gap,
	}
}

// DeltaStar2 computes delta*_2(S) for the Gamma family of Algorithm ALGO:
// the (|S|-f)-subsets of S. When f = 1 and |S| = d+1 it uses the closed
// forms of Lemma 13 (inradius of the input simplex) and Theorem 8
// (delta* = 0 for affinely dependent inputs); otherwise it falls back to
// the cutting-plane solver, whose Result carries a certified interval.
func DeltaStar2(s *vec.Set, f int) Result {
	if f < 1 || f >= s.Len() {
		panic("minimax: DeltaStar2 requires 1 <= f < |S|")
	}
	return cachedDeltaStar(opDeltaStar2, s, f, func() Result { return deltaStar2(s, f) })
}

func deltaStar2(s *vec.Set, f int) Result {
	if f == 1 && s.Len() == s.Dim()+1 {
		if sx, err := simplexgeo.New(s.Points()); err == nil {
			r := sx.Inradius()
			return Result{Delta: r, Point: sx.Incenter(), Lower: r, Exact: true}
		}
		// Affinely dependent: Theorem 8 gives delta* = 0; a witness point
		// lies in Gamma(S), which is non-empty after the distance-
		// preserving projection to the spanned subspace. Find it directly.
		if pt, ok := degenerateGammaPoint(s, f); ok {
			return Result{Delta: 0, Point: pt, Exact: true}
		}
	}
	return DeltaStar2Iterative(s, f)
}

// DeltaStar2Iterative always uses the cutting-plane solver (useful for
// ablation against the closed forms).
func DeltaStar2Iterative(s *vec.Set, f int) Result {
	return cachedDeltaStar(opDeltaIter, s, f, func() Result { return deltaStar2Iterative(s, f) })
}

func deltaStar2Iterative(s *vec.Set, f int) Result {
	fam := droppedSubsets(s, f)
	var seeds []vec.V
	// Seed with the incenter when the inputs happen to form a simplex.
	if f == 1 && s.Len() == s.Dim()+1 {
		if sx, err := simplexgeo.New(s.Points()); err == nil {
			seeds = append(seeds, sx.Incenter())
		}
	}
	return MinMaxDist2(fam, seeds...)
}

// degenerateGammaPoint finds a point in Gamma(S) when the inputs span a
// proper subspace (Theorem 8): project distance-preservingly into the
// subspace, where n >= d'+2 makes Gamma non-empty by Tverberg/Helly, then
// lift the found point back.
func degenerateGammaPoint(s *vec.Set, f int) (vec.V, bool) {
	sp := linalg.NewSubspaceProjector(s.Points())
	proj := make([]vec.V, s.Len())
	for i, p := range s.Points() {
		proj[i] = sp.Project(p)
	}
	ps := vec.NewSet(proj...)
	fam := droppedSubsets(ps, f)
	res := MinMaxDist2(fam)
	if res.Delta > 1e-7*ps.MaxEdge(2) {
		return nil, false
	}
	return sp.Lift(res.Point), true
}

func droppedSubsets(s *vec.Set, f int) []*vec.Set {
	var fam []*vec.Set
	vec.IndexSubsetsDroppingF(s.Len(), f, func(keep []int) bool {
		fam = append(fam, s.Subset(keep))
		return true
	})
	return fam
}

// Theorem9Bound returns the two upper bounds of Theorem 9 for f = 1,
// n = |S|: min(minEdge/2, maxEdge/(n-2)), evaluated on the NON-FAULTY
// edge set E+ (pass the non-faulty inputs). The first component also
// holds over all of E (Theorem 9 states delta* < min_{e in E}/2 <=
// min_{e in E+}/2).
func Theorem9Bound(nonFaulty *vec.Set, n int) float64 {
	minE := nonFaulty.MinEdge(2)
	maxE := nonFaulty.MaxEdge(2)
	return math.Min(minE/2, maxE/float64(n-2))
}

// Theorem12Bound returns the Theorem 12 upper bound for f >= 2 and
// n = (d+1)f: maxEdge(E+)/(d-1).
func Theorem12Bound(nonFaulty *vec.Set, d int) float64 {
	return nonFaulty.MaxEdge(2) / float64(d-1)
}

// Conjecture1Bound returns the Conjecture 1 bound for
// 3f+1 <= n < (d+1)f: maxEdge(E+)/(floor(n/f)-2).
func Conjecture1Bound(nonFaulty *vec.Set, n, f int) float64 {
	return nonFaulty.MaxEdge(2) / float64(n/f-2)
}

// HolderScale returns d^(1/2 - 1/p), the Theorem 14 factor transferring a
// kappa bound from L2 to Lp (p >= 2).
func HolderScale(d int, p float64) float64 {
	if math.IsInf(p, 1) {
		return math.Sqrt(float64(d))
	}
	return math.Pow(float64(d), 0.5-1/p)
}
