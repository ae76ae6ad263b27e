package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	bvc "relaxedbvc"
)

const (
	// sweepConfigs unique configurations per chunk, each run sweepRepeats
	// times, as a real parameter sweep repeats its trials.
	sweepConfigs = 32
	sweepRepeats = 5
	// Configurations whose (index/4)%4 == 3 draw scaled inputs: one in
	// four, spread evenly over the four protocol kinds.
	scaledEvery = 4
	// sweepChunksPerSecond sizes a sweep run: a run of d seconds serves
	// a fixed d × sweepChunksPerSecond chunks (a traced run, which runs
	// each chunk twice and re-solves the kernel, half of that), about
	// d seconds of work on the 2-CPU machine of NOTES.md. A run's trials,
	// and so its failures, depend only on the seed and d, not on the
	// machine's speed: the scaled share's failures are the same count in
	// every run of a seed.
	sweepChunksPerSecond = 56
	// sweepMaxRun stops a sweep that is far slower than sized (a
	// regression or a loaded machine) before it outruns the time a run
	// may take; the run record then shows fewer chunks than planned.
	sweepMaxRun = 150 * time.Second
)

// sweepPlan returns how many chunks a run of length d serves (at least
// one), and the wall time after which it stops regardless.
func sweepPlan(d time.Duration, traced bool) (chunks int, stop time.Time) {
	per := float64(sweepChunksPerSecond)
	if traced {
		per /= 2
	}
	chunks = max(1, int(math.Round(d.Seconds()*per)))
	return chunks, time.Now().Add(min(5*d, sweepMaxRun))
}

// batchWorkers is the sweep's worker count: one per available CPU.
func batchWorkers() int { return runtime.GOMAXPROCS(0) }

// trialKind is one protocol of the synchronous family, each run at its
// in-model process bound with f = 1.
type trialKind int

const (
	deltaL1 trialKind = iota
	deltaLInf
	kRelaxed
	exact
)

// trial is one sweep configuration and what its check needs.
type trial struct {
	spec   bvc.Spec
	kind   trialKind
	scaled bool
}

// mark tags a scaled trial's failure with errScaled.
func (tr *trial) mark(err error) error {
	if err != nil && tr.scaled {
		return fmt.Errorf("%w: %w", errScaled, err)
	}
	return err
}

// scaledVec draws offset + scale*u with u uniform in [-1, 1]^d.
func scaledVec(rng *rand.Rand, offset bvc.Vector, scale float64) bvc.Vector {
	v := make(bvc.Vector, len(offset))
	for j := range v {
		v[j] = offset[j] + scale*(2*rng.Float64()-1)
	}
	return v
}

// sweepConfig draws configuration j of chunk c. Scaled configurations
// take a log-uniform spread in [1e-6, 1e6] and a per-coordinate offset
// of log-uniform magnitude in [1e-6, 1e6] and random sign; the others
// draw from [-5, 5]^d.
func sweepConfig(seed int64, c, j int) trial {
	rng := requestRNG(seed, "batch-sweep", c*sweepConfigs+j)
	tr := trial{kind: trialKind(j % 4), scaled: (j/4)%scaledEvery == scaledEvery-1}
	d := 2 + rng.Intn(2)
	spec := bvc.Spec{F: 1, D: d}
	switch tr.kind {
	case deltaL1, deltaLInf:
		spec.Protocol, spec.N, spec.NormP = bvc.ProtocolDeltaRelaxed, 4, 1
		if tr.kind == deltaLInf {
			spec.NormP = bvc.LInf
		}
	case kRelaxed:
		spec.Protocol, spec.K = bvc.ProtocolKRelaxed, 1+rng.Intn(d)
		spec.N = 4
		if spec.K > 1 {
			spec.N = d + 2
		}
	case exact:
		spec.Protocol, spec.N = bvc.ProtocolExact, d+2
	}
	draw := func() bvc.Vector { return unitVec(rng, d) }
	if tr.scaled {
		scale := logUniform(rng, -6, 6)
		offset := make(bvc.Vector, d)
		for k := range offset {
			offset[k] = logUniform(rng, -6, 6)
			if rng.Intn(2) == 0 {
				offset[k] = -offset[k]
			}
		}
		draw = func() bvc.Vector { return scaledVec(rng, offset, scale) }
	}
	spec.Inputs = make([]bvc.Vector, spec.N)
	for i := range spec.Inputs {
		spec.Inputs[i] = draw()
	}
	byz := rng.Intn(spec.N)
	spec.Byzantine = map[int]bvc.ByzantineBehavior{byz: bvc.Equivocator(draw(), draw())}
	tr.spec = spec
	return tr
}

// sweepChunk builds chunk c: sweepConfigs configurations, each repeated
// sweepRepeats times, interleaved so repeats of one configuration are
// sweepConfigs trials apart.
func sweepChunk(seed int64, c int) []trial {
	uniq := make([]trial, sweepConfigs)
	for j := range uniq {
		uniq[j] = sweepConfig(seed, c, j)
	}
	out := make([]trial, 0, sweepConfigs*sweepRepeats)
	for r := 0; r < sweepRepeats; r++ {
		out = append(out, uniq...)
	}
	return out
}

func specsOf(trials []trial) []bvc.Spec {
	specs := make([]bvc.Spec, len(trials))
	for i := range trials {
		specs[i] = trials[i].spec
	}
	return specs
}

// runChunk runs a chunk through RunBatch as one timed span.
func runChunk(trials []trial) ([]bvc.BatchResult, span) {
	var res []bvc.BatchResult
	sp, _ := measure(func() error {
		res = bvc.RunBatch(context.Background(), bvc.BatchOptions{Workers: batchWorkers()}, specsOf(trials))
		return nil
	})
	return res, sp
}

// diameter is the largest coordinate range of a point set (the L∞
// bounding-box diameter).
func diameter(s *bvc.PointSet) float64 {
	pts := s.Points()
	var diam float64
	for j := range pts[0] {
		lo, hi := pts[0][j], pts[0][j]
		for _, p := range pts[1:] {
			lo, hi = math.Min(lo, p[j]), math.Max(hi, p[j])
		}
		diam = math.Max(diam, hi-lo)
	}
	return diam
}

// checkTrial verifies one trial: the honest outputs agree exactly, a
// δ-relaxed decision is bit-identical to δ*_p recomputed on the agreed
// multiset, and the output meets the protocol's validity condition on
// the honest inputs within 1e-6 of their diameter (the tolerance scales
// with the inputs, as the conditions are affine-invariant). A panic in
// the check is recovered and reported as a failure.
func checkTrial(tr *trial, res *bvc.Result, solve solver) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: in check: %v", errPanic, r)
		}
	}()
	spec := &tr.spec
	honest := spec.HonestIDs()
	if ae := bvc.AgreementError(res.Outputs, honest); ae != 0 {
		return fmt.Errorf("%w: agreement error %g", errCheck, ae)
	}
	h := honest[0]
	out := res.Outputs[h]
	nf := spec.NonFaultyInputs()
	tol := 1e-6 * diameter(nf)
	var ok bool
	switch tr.kind {
	case deltaL1, deltaLInf:
		delta, pt, serr := solve(res.AgreedSet[h], spec.F, spec.NormP)
		if serr != nil || math.Float64bits(delta) != math.Float64bits(res.Delta[h]) || !sameVec(pt, out) {
			return fmt.Errorf("%w: decision differs from ComputeDeltaStar on the agreed set", errCheck)
		}
		ok = bvc.CheckDeltaValidity(out, nf, res.Delta[h], spec.NormP, tol)
	case kRelaxed:
		ok = bvc.CheckKValidity(out, nf, spec.K, tol)
	case exact:
		ok = bvc.CheckExactValidity(out, nf, tol)
	}
	if !ok {
		return fmt.Errorf("%w: %s output", errValidity, spec.Protocol)
	}
	return nil
}

func sweepWorkload() workload {
	return workload{
		name: "batch-sweep",
		// The warm-up runs the unit-scale configurations of a chunk no
		// timed request uses: a known scaled-input failure there would
		// abort the run instead of being counted.
		setup: func() error {
			bvc.ResetCaches()
			var trials []trial
			for j := 0; j < sweepConfigs; j++ {
				if tr := sweepConfig(warmupSeed, -1, j); !tr.scaled {
					trials = append(trials, tr)
				}
			}
			res, _ := runChunk(trials)
			for i, r := range res {
				err := r.Err
				if err == nil {
					err = checkTrial(&trials[i], r.Result, bvc.ComputeDeltaStar)
				}
				if err != nil {
					return fmt.Errorf("warm-up trial %d: %w", i, err)
				}
			}
			return nil
		},
		loop: func(seed int64, d time.Duration, traced bool, t *tally) (map[string]metric, error) {
			chunks, stop := sweepPlan(d, traced)
			if traced {
				return sweepTraced(seed, chunks, stop, t), nil
			}
			for c := 0; c < chunks && time.Now().Before(stop); c++ {
				trials := sweepChunk(seed, c)
				bvc.ResetCaches()
				res, sp := runChunk(trials)
				t.span(sp, len(trials))
				for i, r := range res {
					err := r.Err
					if err == nil {
						err = checkTrial(&trials[i], r.Result, bvc.ComputeDeltaStar)
					}
					t.request(1, r.Elapsed, trials[i].mark(err))
				}
			}
			return nil, nil
		},
	}
}

// sameOutcome reports whether two runs of one trial agree: both failed,
// or both decided bit-identical outputs.
func sameOutcome(a, b bvc.BatchResult) bool {
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return true
	}
	for i := range a.Result.Outputs {
		if !sameVec(a.Result.Outputs[i], b.Result.Outputs[i]) {
			return false
		}
	}
	return true
}

// sweepTraced runs each chunk twice from reset caches, untraced and
// traced; the traced pass reads the library's counters around the
// batch, and its outcomes must match the untraced pass. The decision
// kernel is then re-solved cold on each unique δ-relaxed trial.
func sweepTraced(seed int64, chunks int, stop time.Time, t *tally) map[string]metric {
	ls := newLayerSet()
	var kern kernelTrace
	var lib libraryDelta
	var untraced, traced, busy time.Duration
	var unitMs, scaledMs []float64
	var panics, eigNodes, msgs, decided int
	for c := 0; c < chunks && time.Now().Before(stop); c++ {
		trials := sweepChunk(seed, c)
		bvc.ResetCaches()
		plain, spU := runChunk(trials)
		bvc.ResetCaches()
		var res []bvc.BatchResult
		var spT span
		lib.around(func() { res, spT = runChunk(trials) })
		untraced += spU.wall
		traced += spT.wall
		t.span(spT, len(trials))
		for i, r := range res {
			busy += r.Elapsed
			if trials[i].scaled {
				scaledMs = append(scaledMs, ms(r.Elapsed))
			} else {
				unitMs = append(unitMs, ms(r.Elapsed))
			}
			err := r.Err
			if errors.Is(err, bvc.ErrTrialPanic) {
				panics++
			}
			if !sameOutcome(plain[i], r) {
				t.mismatch++
				err = fmt.Errorf("%w: traced pass decided differently from the untraced pass", errCheck)
			}
			if err == nil {
				solve := bvc.ComputeDeltaStar
				if i < sweepConfigs {
					solve = kern.solve // first run of each configuration
				}
				err = checkTrial(&trials[i], r.Result, solve)
			}
			if err == nil {
				decided++
				eigNodes += r.Result.Metrics.EIGTreeNodes
				msgs += r.Result.Messages
			}
			t.request(1, r.Elapsed, trials[i].mark(err))
		}
	}
	attempted := float64(max(t.attempted, 1))
	kern.set(ls, busy)
	setLayerCounters(ls, &lib, t.attempted)
	ls.set("batch.busy_ratio", ratio(busy.Seconds(), traced.Seconds()*float64(batchWorkers())))
	ls.set("batch.panic_frac", float64(panics)/attempted)
	ls.set("batch.trial_ms_p50.unit", quantile(unitMs, 0.5))
	ls.set("batch.trial_ms_p50.scaled", quantile(scaledMs, 0.5))
	ls.set("consensus.eig_nodes_per_trial", ratio(float64(eigNodes), float64(decided)))
	ls.set("consensus.msgs_per_trial", ratio(float64(msgs), float64(decided)))
	ls.set("trace.overhead_frac", ratio(traced.Seconds(), untraced.Seconds())-1)
	ls.set("trace.unexplained_frac", 1-ratio(kern.total.Seconds(), busy.Seconds()))
	return ls
}
