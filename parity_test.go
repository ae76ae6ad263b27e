package relaxedbvc_test

// Parity tests: Run(ctx, Spec{...}) must produce bit-for-bit the same
// outcome as the protocol engine it dispatches to (the consensus.Run*
// entry points) on identical inputs. Each case runs both paths with
// caching disabled first (independent solves), then re-runs the Spec
// path with caching on to confirm cache hits replay the same bits.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	bvc "relaxedbvc"
	"relaxedbvc/internal/consensus"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
)

func parityInputs(t *testing.T, seed int64, n, d int) []bvc.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]bvc.Vector, n)
	for i := range inputs {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64() * 3
		}
		inputs[i] = bvc.NewVector(v...)
	}
	return inputs
}

func sameVec(a, b bvc.Vector) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkVecs(t *testing.T, name string, old, new []bvc.Vector) {
	t.Helper()
	if len(old) != len(new) {
		t.Fatalf("%s: %d vs %d outputs", name, len(old), len(new))
	}
	for i := range old {
		if !sameVec(old[i], new[i]) {
			t.Errorf("%s: output %d differs: %v vs %v", name, i, old[i], new[i])
		}
	}
}

func checkFloats(t *testing.T, name string, old, new []float64) {
	t.Helper()
	if len(old) != len(new) {
		t.Fatalf("%s: %d vs %d values", name, len(old), len(new))
	}
	for i := range old {
		if math.Float64bits(old[i]) != math.Float64bits(new[i]) {
			t.Errorf("%s: value %d differs: %v vs %v", name, i, old[i], new[i])
		}
	}
}

// runBoth executes spec through Run three ways — uncached, cached-cold,
// cached-warm — and checks all three agree before returning the first.
func runBoth(t *testing.T, spec bvc.Spec) *bvc.Result {
	t.Helper()
	bvc.SetCaching(false)
	raw, err := bvc.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run (uncached): %v", err)
	}
	bvc.SetCaching(true)
	bvc.ResetCaches()
	for pass := 0; pass < 2; pass++ {
		cached, err := bvc.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("Run (cached pass %d): %v", pass, err)
		}
		checkVecs(t, "cached outputs", raw.Outputs, cached.Outputs)
		checkFloats(t, "cached delta", raw.Delta, cached.Delta)
	}
	return raw
}

func TestParityExact(t *testing.T) {
	inputs := parityInputs(t, 1, 5, 2)
	cfg := &consensus.SyncConfig{N: 5, F: 1, D: 2, Inputs: inputs}
	old, err := consensus.RunExactBVC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolExact, N: 5, F: 1, D: 2, Inputs: inputs})
	checkVecs(t, "exact", old.Outputs, res.Outputs)
	if old.Rounds != res.Rounds || old.Messages != res.Messages {
		t.Errorf("stats differ: %d/%d vs %d/%d", old.Rounds, old.Messages, res.Rounds, res.Messages)
	}
}

func TestParityKRelaxed(t *testing.T) {
	inputs := parityInputs(t, 2, 4, 2)
	cfg := &consensus.SyncConfig{N: 4, F: 1, D: 2, Inputs: inputs}
	old, err := consensus.RunKRelaxedBVC(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolKRelaxed, N: 4, F: 1, D: 2, K: 1, Inputs: inputs})
	checkVecs(t, "k-relaxed", old.Outputs, res.Outputs)
}

func TestParityDeltaRelaxed(t *testing.T) {
	for _, p := range []float64{1, 2, bvc.LInf} {
		inputs := parityInputs(t, 3, 4, 3)
		cfg := &consensus.SyncConfig{N: 4, F: 1, D: 3, Inputs: inputs}
		old, err := consensus.RunDeltaRelaxedBVC(context.Background(), cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolDeltaRelaxed, N: 4, F: 1, D: 3, NormP: p, Inputs: inputs})
		checkVecs(t, "delta-relaxed", old.Outputs, res.Outputs)
		checkFloats(t, "delta-relaxed delta", old.Delta, res.Delta)
	}
}

func TestParityDeltaRelaxedDefaultNorm(t *testing.T) {
	// Spec.NormP = 0 must mean p = 2.
	inputs := parityInputs(t, 4, 4, 2)
	old, err := consensus.RunDeltaRelaxedBVC(context.Background(), &consensus.SyncConfig{N: 4, F: 1, D: 2, Inputs: inputs}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{N: 4, F: 1, D: 2, Inputs: inputs}) // all defaults
	checkVecs(t, "default norm", old.Outputs, res.Outputs)
	checkFloats(t, "default norm delta", old.Delta, res.Delta)
}

func TestParityScalar(t *testing.T) {
	inputs := parityInputs(t, 5, 4, 1)
	old, err := consensus.RunScalarConsensus(context.Background(), &consensus.SyncConfig{N: 4, F: 1, D: 1, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolScalar, N: 4, F: 1, D: 1, Inputs: inputs})
	checkVecs(t, "scalar", old.Outputs, res.Outputs)
}

func TestParityConvex(t *testing.T) {
	inputs := parityInputs(t, 6, 5, 2)
	old, err := consensus.RunConvexHullConsensus(context.Background(), &consensus.SyncConfig{N: 5, F: 1, D: 2, Inputs: inputs}, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolConvex, N: 5, F: 1, D: 2, Directions: 8, Inputs: inputs})
	if len(old.Vertices) != len(res.Vertices) {
		t.Fatalf("vertex sets: %d vs %d", len(old.Vertices), len(res.Vertices))
	}
	for i := range old.Vertices {
		checkVecs(t, "convex vertices", old.Vertices[i], res.Vertices[i])
	}
}

func TestParityIterative(t *testing.T) {
	inputs := parityInputs(t, 7, 5, 1)
	old, err := consensus.RunIterativeBVC(context.Background(), &consensus.IterConfig{N: 5, F: 1, D: 1, Inputs: inputs, Rounds: 12})
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolIterative, N: 5, F: 1, D: 1, Rounds: 12, Inputs: inputs})
	checkVecs(t, "iterative", old.Outputs, res.Outputs)
	checkFloats(t, "iterative range", old.RangeHistory, res.RangeHistory)
}

func TestParityAsync(t *testing.T) {
	inputs := parityInputs(t, 8, 4, 2)
	old, err := consensus.RunAsyncBVC(context.Background(), &consensus.AsyncConfig{N: 4, F: 1, D: 2, Inputs: inputs, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolAsync, N: 4, F: 1, D: 2, Rounds: 3, Inputs: inputs})
	checkVecs(t, "async", old.Outputs, res.Outputs)
	checkFloats(t, "async delta", old.Delta, res.Delta)
	checkFloats(t, "async spread", old.RoundSpread, res.RoundSpread)
	if old.Steps != res.Steps || old.Messages != res.Messages {
		t.Errorf("stats differ: %d/%d vs %d/%d", old.Steps, old.Messages, res.Steps, res.Messages)
	}
}

func TestParityK1Async(t *testing.T) {
	inputs := parityInputs(t, 9, 4, 3)
	old, err := consensus.RunK1AsyncBVC(context.Background(), &consensus.AsyncConfig{N: 4, F: 1, D: 3, Inputs: inputs, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{Protocol: bvc.ProtocolK1Async, N: 4, F: 1, D: 3, Rounds: 3, Inputs: inputs})
	checkVecs(t, "k1-async", old.Outputs, res.Outputs)
}

func TestParityWithByzantine(t *testing.T) {
	inputs := parityInputs(t, 10, 5, 2)
	byz := map[int]bvc.ByzantineBehavior{0: bvc.Equivocator(bvc.NewVector(9, 9), bvc.NewVector(-9, -9))}
	old, err := consensus.RunDeltaRelaxedBVC(context.Background(), &consensus.SyncConfig{N: 5, F: 1, D: 2, Inputs: inputs, Byzantine: byz}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, bvc.Spec{N: 5, F: 1, D: 2, Inputs: inputs, Byzantine: byz})
	checkVecs(t, "byzantine", old.Outputs, res.Outputs)
	checkFloats(t, "byzantine delta", old.Delta, res.Delta)
}

// TestParityDeltaStar pins ComputeDeltaStar to the kernel each norm
// selects: the closed-form/cutting-plane δ*₂ solver, the exact LP for
// p ∈ {1, ∞}, and the generic Lp solver otherwise.
func TestParityDeltaStar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kernel := map[float64]func(*bvc.PointSet) (float64, bvc.Vector){
		1: func(s *bvc.PointSet) (float64, bvc.Vector) { return relax.DeltaStarPoly(s, 1, 1) },
		2: func(s *bvc.PointSet) (float64, bvc.Vector) {
			r := minimax.DeltaStar2(s, 1)
			return r.Delta, r.Point
		},
		3: func(s *bvc.PointSet) (float64, bvc.Vector) {
			r := minimax.DeltaStarP(s, 1, 3)
			return r.Delta, r.Point
		},
		bvc.LInf: func(s *bvc.PointSet) (float64, bvc.Vector) { return relax.DeltaStarPoly(s, 1, bvc.LInf) },
	}
	for _, p := range []float64{1, 2, 3, bvc.LInf} {
		pts := make([]bvc.Vector, 6)
		for i := range pts {
			pts[i] = bvc.NewVector(rng.NormFloat64(), rng.NormFloat64())
		}
		s := bvc.NewPointSet(pts...)
		bvc.SetCaching(false)
		wantD, wantPt := kernel[p](s)
		bvc.SetCaching(true)
		gotD, gotPt, err := bvc.ComputeDeltaStar(s, 1, p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if math.Float64bits(wantD) != math.Float64bits(gotD) || !sameVec(wantPt, gotPt) {
			t.Errorf("p=%v: kernel (%v, %v) vs ComputeDeltaStar (%v, %v)", p, wantD, wantPt, gotD, gotPt)
		}
	}
}

func TestComputeDeltaStarErrors(t *testing.T) {
	s := bvc.NewPointSet(bvc.NewVector(0, 0), bvc.NewVector(1, 1), bvc.NewVector(2, 0))
	cases := []struct {
		name string
		s    *bvc.PointSet
		f    int
		p    float64
		want error
	}{
		{"nil set", nil, 1, 2, bvc.ErrBadInputs},
		{"empty set", bvc.NewPointSet(), 1, 2, bvc.ErrBadInputs},
		{"f=0", s, 0, 2, bvc.ErrTooManyFaults},
		{"f=|S|", s, 3, 2, bvc.ErrTooManyFaults},
		{"p=0", s, 1, 0, bvc.ErrBadNorm},
		{"p=0.5", s, 1, 0.5, bvc.ErrBadNorm},
		{"p=NaN", s, 1, math.NaN(), bvc.ErrBadNorm},
		{"p=-Inf", s, 1, math.Inf(-1), bvc.ErrBadNorm},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := bvc.ComputeDeltaStar(c.s, c.f, c.p)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	_, err := bvc.Run(context.Background(), bvc.Spec{Protocol: bvc.Protocol(99)})
	if err == nil {
		t.Fatal("want ErrUnknownProtocol")
	}
}

func TestRunBatchParity(t *testing.T) {
	// A batch of mixed specs must return, at each index, exactly what a
	// sequential Run of the same spec returns.
	specs := []bvc.Spec{
		{Protocol: bvc.ProtocolDeltaRelaxed, N: 4, F: 1, D: 2, Inputs: parityInputs(t, 20, 4, 2)},
		{Protocol: bvc.ProtocolExact, N: 5, F: 1, D: 2, Inputs: parityInputs(t, 21, 5, 2)},
		{Protocol: bvc.ProtocolScalar, N: 4, F: 1, D: 1, Inputs: parityInputs(t, 22, 4, 1)},
		{Protocol: bvc.ProtocolAsync, N: 4, F: 1, D: 2, Rounds: 3, Inputs: parityInputs(t, 23, 4, 2)},
	}
	bvc.SetCaching(true)
	bvc.ResetCaches()
	sequential := make([]*bvc.Result, len(specs))
	for i, spec := range specs {
		r, err := bvc.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		sequential[i] = r
	}
	batched := bvc.RunBatch(context.Background(), bvc.BatchOptions{Workers: 4}, specs)
	if err := bvc.FirstBatchErr(batched); err != nil {
		t.Fatal(err)
	}
	for i, b := range batched {
		if b.Index != i {
			t.Fatalf("result %d has index %d", i, b.Index)
		}
		checkVecs(t, "batch outputs", sequential[i].Outputs, b.Result.Outputs)
		checkFloats(t, "batch delta", sequential[i].Delta, b.Result.Delta)
	}
}
