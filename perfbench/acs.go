package main

import (
	"context"
	"fmt"
	"math"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/acs"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
)

// acsShape is one ACS cluster shape and the stream length of one
// request. family names the input stream: acs-tcp draws from
// acs-stream's, so the two run identical proposals on the same seed.
type acsShape struct {
	family  string
	n, f, d int
	p       float64
	epochs  int
}

var (
	// kernelShape: one-epoch requests at n=7/d=3, where the cold δ*₂
	// minimax solve dominates each request.
	kernelShape = acsShape{family: "acs-kernel", n: 7, f: 2, d: 3, p: 2, epochs: 1}
	// streamShape: 64-epoch pipelined streams at n=4/d=2, where the
	// agreed 3-point subset takes the closed-form inradius and the
	// protocol layers dominate.
	streamShape = acsShape{family: "acs-stream", n: 4, f: 1, d: 2, p: 2, epochs: 64}
)

// spec builds request i's instance: fresh proposals from [-5, 5]^d and
// one scripted equivocator (the last node).
func (s acsShape) spec(seed int64, i int) bvc.Spec {
	rng := requestRNG(seed, s.family, i)
	props := make([][]bvc.Vector, s.epochs)
	for e := range props {
		row := make([]bvc.Vector, s.n)
		for j := range row {
			row[j] = unitVec(rng, s.d)
		}
		props[e] = row
	}
	return bvc.Spec{
		Protocol: bvc.ProtocolACS, N: s.n, F: s.f, D: s.d, NormP: s.p,
		Proposals:    props,
		ACSByzantine: map[int]bvc.ACSBehavior{s.n - 1: bvc.ACSEquivocate},
	}
}

// runSim runs spec through the public Run on the simulation.
func runSim(spec *bvc.Spec) ([][]bvc.ACSEpoch, error) {
	res, err := bvc.Run(context.Background(), *spec)
	if err != nil {
		return nil, err
	}
	return res.ACS, nil
}

func acsWorkload(name string, shape acsShape) workload {
	return workload{
		name: name,
		setup: func() error {
			bvc.ResetCaches()
			spec := shape.spec(warmupSeed, -1)
			streams, err := runSim(&spec)
			if err != nil {
				return err
			}
			return checkACS(&spec, streams, bvc.ComputeDeltaStar)
		},
		loop: func(seed int64, d time.Duration, traced bool, t *tally) (map[string]metric, error) {
			deadline := time.Now().Add(d)
			if traced {
				return acsTraced(shape, seed, deadline, t)
			}
			for i := 0; t.more(deadline); i++ {
				spec := shape.spec(seed, i)
				bvc.ResetCaches()
				var streams [][]bvc.ACSEpoch
				sp, err := measure(func() (e error) {
					streams, e = runSim(&spec)
					return e
				})
				if err == nil {
					err = checkACS(&spec, streams, bvc.ComputeDeltaStar)
				}
				t.record(shape.epochs, sp, err)
			}
			return nil, nil
		},
	}
}

// solver computes δ*_p of a subset; checkACS takes the plain
// ComputeDeltaStar or a traced, cold wrapper around it.
type solver func(s *bvc.PointSet, f int, p float64) (float64, bvc.Vector, error)

// checkACS verifies one request's decision streams (streams[i] is node
// i's, nil for a node not executed): every honest node sealed every
// epoch with the same fingerprint; each subset holds at least n-f
// ascending slots; an honest slot carries its proposal; and each
// epoch's decision is bit-identical to δ*_p recomputed on its values.
func checkACS(spec *bvc.Spec, streams [][]bvc.ACSEpoch, solve solver) error {
	honest := spec.HonestIDs()
	ref := streams[honest[0]]
	want := bvc.ACSFingerprint(ref)
	for _, i := range honest {
		if len(streams[i]) != len(spec.Proposals) {
			return fmt.Errorf("%w: node %d sealed %d of %d epochs", errCheck, i, len(streams[i]), len(spec.Proposals))
		}
		if got := bvc.ACSFingerprint(streams[i]); got != want {
			return fmt.Errorf("%w: node %d stream fingerprint differs from node %d", errCheck, i, honest[0])
		}
	}
	isHonest := make(map[int]bool, len(honest))
	for _, i := range honest {
		isHonest[i] = true
	}
	for e, ep := range ref {
		if ep.Epoch != e || len(ep.Subset) < spec.N-spec.F || len(ep.Values) != len(ep.Subset) {
			return fmt.Errorf("%w: epoch %d: subset %v of n=%d f=%d", errCheck, e, ep.Subset, spec.N, spec.F)
		}
		for k, s := range ep.Subset {
			if s < 0 || s >= spec.N || (k > 0 && s <= ep.Subset[k-1]) {
				return fmt.Errorf("%w: epoch %d: subset %v not ascending in range", errCheck, e, ep.Subset)
			}
			if isHonest[s] && !sameVec(ep.Values[k], spec.Proposals[e][s]) {
				return fmt.Errorf("%w: epoch %d: honest slot %d value differs from its proposal", errCheck, e, s)
			}
		}
		delta, out, err := solve(bvc.NewPointSet(ep.Values...), spec.F, spec.NormP)
		if err != nil {
			return fmt.Errorf("%w: epoch %d: recompute: %v", errCheck, e, err)
		}
		if math.Float64bits(delta) != math.Float64bits(ep.Delta) || !sameVec(out, ep.Output) {
			return fmt.Errorf("%w: epoch %d: decision differs from ComputeDeltaStar on its subset", errCheck, e)
		}
	}
	return nil
}

func sameVec(a, b bvc.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// acsNodes builds the cluster's state machines exactly as Run does for
// an ACS Spec whose adversaries all equivocate.
func acsNodes(spec *bvc.Spec) ([]*acs.Node, error) {
	nodes := make([]*acs.Node, spec.N)
	for i := range nodes {
		own := make([]bvc.Vector, len(spec.Proposals))
		for e := range own {
			own[e] = spec.Proposals[e][i]
		}
		behavior := acs.Honest
		if _, bad := spec.ACSByzantine[i]; bad {
			behavior = acs.Equivocate
		}
		node, err := acs.NewNode(acs.Config{
			N: spec.N, F: spec.F, Self: i, D: spec.D, NormP: spec.NormP,
			Proposals: own, Behavior: behavior,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	return nodes, nil
}

// stream converts a node's sealed decisions to the public type, so the
// traced wiring's fingerprints compare with Run's.
func stream(node *acs.Node) []bvc.ACSEpoch {
	decs := node.Decisions()
	out := make([]bvc.ACSEpoch, len(decs))
	for i, d := range decs {
		out[i] = bvc.ACSEpoch{Epoch: d.Epoch, Subset: d.Subset, Values: d.Values, Output: d.Output, Delta: d.Delta}
	}
	return out
}

// stepTimer is the node Step span: it times every Start and Step call
// of the wrapped state machine.
type stepTimer struct {
	inner sched.SyncProcess
	busy  time.Duration
}

func (p *stepTimer) Start() []sched.Outgoing {
	t0 := time.Now()
	outs := p.inner.Start()
	p.busy += time.Since(t0)
	return outs
}

func (p *stepTimer) Step(round int, delivered []sched.Message) []sched.Outgoing {
	t0 := time.Now()
	outs := p.inner.Step(round, delivered)
	p.busy += time.Since(t0)
	return outs
}

func (p *stepTimer) Done() bool { return p.inner.Done() }

// tagCount splits delivered messages by protocol tag.
type tagCount struct{ rbc, aba int }

func (c *tagCount) observe(m sched.Message) {
	switch m.Tag {
	case broadcast.BrachaTag:
		c.rbc++
	case acs.ABATag:
		c.aba++
	}
}

// kernelTrace times the decision kernel: each call re-solves one
// sealed subset cold (caches reset first) and records its time,
// allocation and GC cycles.
type kernelTrace struct {
	samples []float64 // ms per decide
	total   time.Duration
	alloc   uint64
	gcs     uint64
}

func (k *kernelTrace) solve(s *bvc.PointSet, f int, p float64) (float64, bvc.Vector, error) {
	bvc.ResetCaches()
	g0 := gcCycles()
	var delta float64
	var out bvc.Vector
	sp, err := measure(func() (e error) {
		delta, out, e = bvc.ComputeDeltaStar(s, f, p)
		return e
	})
	k.gcs += gcCycles() - g0
	k.samples = append(k.samples, ms(sp.wall))
	k.total += sp.wall
	k.alloc += sp.alloc
	return delta, out, err
}

func (k *kernelTrace) set(ls layerSet, requestTime time.Duration) {
	if len(k.samples) == 0 {
		return
	}
	n := float64(len(k.samples))
	ls.set("kernel.decide_ms_p50", quantile(k.samples, 0.5))
	ls.set("kernel.decide_ms_p90", quantile(k.samples, 0.9))
	ls.set("kernel.share", ratio(k.total.Seconds(), requestTime.Seconds()))
	ls.set("kernel.alloc_kb_per_decide", float64(k.alloc)/1024/n)
	ls.set("kernel.gc_cycles_per_decide", float64(k.gcs)/n)
}

// acsTotals accumulates the protocol counters and spans of traced ACS
// requests.
type acsTotals struct {
	epochs, rounds, msgs, slots, abaRounds int
	tags                                   tagCount
	step, engine                           time.Duration
}

func (a *acsTotals) set(ls layerSet, k *kernelTrace, n int) {
	e := float64(max(a.epochs, 1))
	ls.set("acs.rounds_per_epoch", float64(a.rounds)/e)
	ls.set("acs.msgs_per_epoch", float64(a.msgs)/e)
	ls.set("acs.rbc_msgs_per_epoch", float64(a.tags.rbc)/e)
	ls.set("acs.aba_msgs_per_epoch", float64(a.tags.aba)/e)
	ls.set("acs.aba_rounds_per_slot", float64(a.abaRounds)/(e*float64(n)))
	ls.set("acs.slots_per_epoch", float64(a.slots)/e)
	ls.set("acs.step_ms_per_epoch", ms(a.step-k.total)/e)
	ls.set("sched.engine_ms_per_epoch", ms(a.engine)/e)
}

// simTrace is one traced request on the simulation: the benchmark's
// own wiring of acs.NewNode and sched.NewSyncEngine, with the node Step
// and engine spans timed and messages split by tag.
func simTrace(spec *bvc.Spec, tot *acsTotals) ([][]bvc.ACSEpoch, time.Duration, error) {
	nodes, err := acsNodes(spec)
	if err != nil {
		return nil, 0, err
	}
	timers := make([]*stepTimer, len(nodes))
	procs := make([]sched.SyncProcess, len(nodes))
	for i, node := range nodes {
		timers[i] = &stepTimer{inner: node}
		procs[i] = timers[i]
	}
	eng := sched.NewSyncEngine(procs)
	eng.TraceFn = tot.tags.observe
	t0 := time.Now()
	rounds, err := eng.Run()
	run := time.Since(t0)
	if err != nil {
		return nil, run, err
	}
	streams := make([][]bvc.ACSEpoch, len(nodes))
	for i, node := range nodes {
		streams[i] = stream(node)
	}
	var step time.Duration
	for _, tm := range timers {
		step += tm.busy
	}
	st := nodes[spec.HonestIDs()[0]].Stats()
	tot.epochs += st.Epochs
	tot.slots += st.Slots
	tot.abaRounds += st.ABARounds
	tot.rounds += rounds
	tot.msgs += eng.Messages
	tot.step += step
	tot.engine += run - step
	return streams, run, nil
}

// sameStreams reports whether two runs sealed bit-identical streams on
// every honest node.
func sameStreams(spec *bvc.Spec, a, b [][]bvc.ACSEpoch) bool {
	for _, i := range spec.HonestIDs() {
		if bvc.ACSFingerprint(a[i]) != bvc.ACSFingerprint(b[i]) {
			return false
		}
	}
	return true
}

// acsTraced runs each request twice from reset caches: through Run
// (untraced) and through simTrace (traced). The streams must match;
// the kernel is then re-solved cold on every sealed subset.
func acsTraced(shape acsShape, seed int64, deadline time.Time, t *tally) (map[string]metric, error) {
	ls := newLayerSet()
	var tot acsTotals
	var kern kernelTrace
	var lib libraryDelta
	var untraced, traced, inRun time.Duration
	for i := 0; time.Now().Before(deadline); i++ {
		spec := shape.spec(seed, i)
		bvc.ResetCaches()
		var plain [][]bvc.ACSEpoch
		spU, errU := measure(func() (e error) {
			plain, e = runSim(&spec)
			return e
		})
		bvc.ResetCaches()
		var streams [][]bvc.ACSEpoch
		var run time.Duration
		var spT span
		var err error
		lib.around(func() {
			spT, err = measure(func() (e error) {
				streams, run, e = simTrace(&spec, &tot)
				return e
			})
		})
		if err == nil && errU == nil {
			untraced += spU.wall
			traced += spT.wall
			inRun += run
			if !sameStreams(&spec, plain, streams) {
				t.mismatch++
				err = fmt.Errorf("%w: traced wiring sealed a different stream than Run", errCheck)
			}
		} else if err == nil {
			err = errU
		}
		if err == nil {
			err = checkACS(&spec, streams, kern.solve)
		}
		t.record(shape.epochs, spT, err)
	}
	kern.set(ls, traced)
	tot.set(ls, &kern, shape.n)
	setLayerCounters(ls, &lib, tot.epochs)
	ls.set("trace.overhead_frac", ratio(traced.Seconds(), untraced.Seconds())-1)
	ls.set("trace.unexplained_frac", ratio((traced-inRun).Seconds(), traced.Seconds()))
	return ls, nil
}
