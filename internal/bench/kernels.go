// Kernel-parallelism benchmark: times the combinatorial geometry
// kernels (Tverberg partition scan, k-relaxed membership sweep, Lp
// minimax descent) along two axes — one kernel worker versus the full
// worker pool, and the fast single-thread path (filtered predicates,
// the default) versus the legacy exact-everything path (filters off,
// one worker: the code path before the filtered-predicate work
// landed). Outputs are verified
// bit-identical across all lanes, and the memo cache's warm lookup
// path is measured. Behind `bvcbench -kernel-bench`, `make
// bench-kernels` and the kernel half of the bench-regression guard;
// the committed report is BENCH_kernels.json.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/par"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/tverberg"
	"relaxedbvc/internal/vec"
)

// KernelCase is one kernel's measurements in the BENCH_kernels.json
// report.
type KernelCase struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`

	Workers1Seconds float64 `json:"workers1_seconds"`
	WorkersNSeconds float64 `json:"workers_n_seconds"`
	SeqRoundsPerSec float64 `json:"workers1_rounds_per_sec"`
	ParRoundsPerSec float64 `json:"workers_n_rounds_per_sec"`
	Speedup         float64 `json:"speedup"`

	// LegacySeconds times the same rounds at one worker with the
	// filtered predicates disabled — the exact code path before that
	// optimization landed. SingleThreadSpeedup
	// is LegacySeconds / Workers1Seconds: the single-thread win of the
	// fast path, independent of core count.
	LegacySeconds       float64 `json:"legacy_seconds"`
	SingleThreadSpeedup float64 `json:"single_thread_speedup"`

	// SpeedupGate is the minimum speedup this case must show on a
	// machine with GOMAXPROCS >= 4 (0 = parity-only case, e.g. the
	// early-exit feasible scan where sequential stops at the first
	// hit and there is little left to parallelize).
	SpeedupGate float64 `json:"speedup_gate"`

	// SingleThreadGate is the minimum SingleThreadSpeedup this case
	// must clear. Unlike SpeedupGate it arms on every machine — the
	// comparison is same-core fast-vs-legacy, so core count cannot
	// excuse a miss.
	SingleThreadGate float64 `json:"single_thread_gate"`

	// OutputsIdentical is the bit-for-bit fingerprint comparison of
	// the kernel outputs across the two worker settings.
	OutputsIdentical bool `json:"outputs_identical"`
}

// KernelReport is the BENCH_kernels.json schema.
type KernelReport struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`

	Cases []KernelCase `json:"cases"`

	// MinSweepSpeedup is the smallest speedup among the full-sweep
	// cases (SpeedupGate >= 2) — the headline number the guard holds
	// at 2x on multicore machines.
	MinSweepSpeedup  float64 `json:"min_sweep_speedup"`
	OutputsIdentical bool    `json:"outputs_identical"`

	// MinSingleThreadSpeedup is the smallest SingleThreadSpeedup among
	// the single-thread-gated cases — the fast-vs-legacy headline the
	// guard holds at 2x on every machine.
	MinSingleThreadSpeedup float64 `json:"min_single_thread_speedup"`

	// FastPathCounters is the metrics delta of the fast-path machinery
	// (filter accept/reject/fallback splits, arena reuse) accumulated over the benchmark run — the observability
	// that the speedups come from the mechanisms they claim to.
	FastPathCounters map[string]int64 `json:"fast_path_counters,omitempty"`

	// Warm memo-cache lookup path (pooled key build + sharded Get).
	CacheHitNsPerOp     float64 `json:"cache_hit_ns_per_op"`
	CacheHitAllocsPerOp float64 `json:"cache_hit_allocs_per_op"`
}

// fingerprint is an FNV-1a accumulator over the exact bit patterns of
// kernel outputs; equal fingerprints across worker settings certify
// bit-identical results.
type fingerprint uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newFingerprint() fingerprint { return fnvOffset }

func (f *fingerprint) word(w uint64) {
	for i := 0; i < 8; i++ {
		*f ^= fingerprint(w & 0xff)
		*f *= fnvPrime
		w >>= 8
	}
}

func (f *fingerprint) int(v int)       { f.word(uint64(int64(v))) }
func (f *fingerprint) float(v float64) { f.word(math.Float64bits(v)) }

func (f *fingerprint) bool(v bool) {
	if v {
		f.word(1)
	} else {
		f.word(0)
	}
}

func (f *fingerprint) vec(v vec.V) {
	f.int(len(v))
	for _, x := range v {
		f.float(x)
	}
}

// kernelSet builds n deterministic pseudo-random points in R^d with the
// same LCG as the batch sweep, so reports are reproducible by seed.
func kernelSet(seed int64, n, d int) *vec.Set {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<53)*10 - 5
	}
	pts := make([]vec.V, n)
	for i := range pts {
		v := vec.New(d)
		for j := range v {
			v[j] = next()
		}
		pts[i] = v
	}
	return vec.NewSet(pts...)
}

// kernelDef is one benchmark workload: a deterministic closure over
// fixed inputs whose outputs are folded into the fingerprint. gate is
// the multicore parallel-speedup floor, stGate the always-armed
// single-thread fast-vs-legacy floor.
type kernelDef struct {
	name   string
	gate   float64
	stGate float64
	run    func(fp *fingerprint)
}

// kernelDefs builds the workload list. Inputs are constructed once and
// shared across rounds and worker settings; every kernel treats its
// arguments as read-only.
func kernelDefs(seed int64) []kernelDef {
	// Full-sweep scan: n = (d+1)f points in general position admit no
	// Tverberg partition (the Section 8 tightness regime), so the scan
	// must reject all S(8,3) = 966 candidates — the worst case the
	// parallel chunked scan is built for.
	infeasible := kernelSet(seed, 8, 3)
	// First-hit scan: n = (d+1)f + 1 guarantees a partition exists
	// (Theorem 7); sequential stops at the first hit, so this case is
	// gated on parity only.
	feasible := kernelSet(seed+1, 9, 3)
	// Projection sweep: C(10, 4) = 210 coordinate subsets per query.
	// The queries are convex combinations of the set, so membership
	// holds and the sweep cannot short-circuit on an early failing
	// projection — it must test all 210 subsets (the AllOf worst case
	// the parallel path is built for).
	hullSet := kernelSet(seed+2, 14, 10)
	center := vec.Mean(hullSet.Points())
	queries := make([]vec.V, 6)
	for i := range queries {
		queries[i] = vec.Lerp(center, hullSet.At(i), 0.5)
	}
	// Lp minimax: C(9, 7) = 36 dropped subsets per descent step.
	family := kernelSet(seed+4, 9, 3)
	// H_k-only queries: the cross-polytope hull is the L1 ball of radius
	// crossR, so a point whose largest k-coordinate sum stays below
	// crossR while its full L1 norm exceeds it lies in H_k(S) \ conv(S).
	// The conv(S)-accept prefilter of InHullK provably misses, and every
	// one of the C(d,k) projection tests must run (and accept) — the
	// full-sweep workload the parallel path and the membership screens
	// are measured on.
	const crossD, crossK = 10, 4
	const crossR = 3.0
	crossPts := make([]vec.V, 0, 2*crossD)
	for i := 0; i < crossD; i++ {
		for _, r := range []float64{crossR, -crossR} {
			v := vec.New(crossD)
			v[i] = r
			crossPts = append(crossPts, v)
		}
	}
	crossSet := vec.NewSet(crossPts...)
	jit := kernelSet(seed+3, 6, crossD)
	hkQueries := make([]vec.V, 6)
	// Center coordinate c: max k-sum ~ k*c*1.02 < crossR < d*c*0.98 ~ L1
	// norm, with ~40% slack on both sides at +/-2% jitter.
	c := 2 * crossR / float64(crossK+crossD)
	for i := range hkQueries {
		q := vec.New(crossD)
		for j := 0; j < crossD; j++ {
			q[j] = c * (1 + 0.004*jit.At(i)[j])
		}
		hkQueries[i] = q
	}
	// Γ_(δ,p) threshold scan: one dropped-subset family probed at a
	// descending delta ladder: the feasible head and the infeasible
	// tail of the same joint LP, whose shape is identical across the
	// ladder (only the delta bounds move).
	gammaSet := kernelSet(seed+6, 7, 2)
	gammaFam := relax.DroppedSubsets(gammaSet, 2)
	gammaDeltas := []float64{4, 2, 1, 0.5, 0.25, 0.12, 0.06, 0.03}

	return []kernelDef{
		{
			name:   "tverberg_scan_infeasible",
			gate:   2,
			stGate: 2,
			run: func(fp *fingerprint) {
				blocks, pt, ok := tverberg.Partition(infeasible, 2)
				fp.bool(ok)
				fp.int(len(blocks))
				fp.vec(pt)
			},
		},
		{
			name: "tverberg_scan_feasible",
			gate: 0,
			run: func(fp *fingerprint) {
				blocks, pt, ok := tverberg.Partition(feasible, 2)
				fp.bool(ok)
				fp.int(len(blocks))
				for _, b := range blocks {
					fp.int(len(b))
					for _, i := range b {
						fp.int(i)
					}
				}
				fp.vec(pt)
			},
		},
		{
			// Member queries: the conv(S)-accept prefilter collapses each
			// sweep to one full-space membership test, so there is nothing
			// left for the worker pool (parallel gate 0) — the case gates
			// the single-thread fast-vs-legacy win instead.
			name:   "inhullk_projection_sweep",
			gate:   0,
			stGate: 2,
			run: func(fp *fingerprint) {
				for _, q := range queries {
					fp.bool(relax.InHullK(q, hullSet, 4))
				}
			},
		},
		{
			name:   "inhullk_hk_only_sweep",
			gate:   2,
			stGate: 0,
			run: func(fp *fingerprint) {
				for _, q := range hkQueries {
					fp.bool(relax.InHullK(q, crossSet, crossK))
				}
			},
		},
		{
			name:   "gamma_delta_scan",
			gate:   0,
			stGate: 0,
			run: func(fp *fingerprint) {
				for _, delta := range gammaDeltas {
					pt, ok := relax.IntersectRelaxedHulls(gammaFam, delta, math.Inf(1))
					fp.bool(ok)
					fp.vec(pt)
				}
			},
		},
		{
			name: "minimax_deltastar_pinf",
			gate: 0,
			run: func(fp *fingerprint) {
				r := minimax.DeltaStarP(family, 2, math.Inf(1))
				fp.float(r.Delta)
				fp.vec(r.Point)
			},
		},
	}
}

// RunKernels executes every kernel workload at one worker and at the
// full pool, fingerprint-checks the outputs, measures the warm cache
// lookup, and returns the report. workers <= 0 means GOMAXPROCS, but
// at least 4 so the parallel scan path (and its parity check) is
// exercised even on small machines — speedup gates still key off the
// real GOMAXPROCS. Progress diagnostics go to diag (pass io.Discard
// to silence them).
func RunKernels(workers int, seed int64, diag io.Writer) (*KernelReport, error) {
	if workers <= 0 {
		if workers = runtime.GOMAXPROCS(0); workers < 4 {
			workers = 4
		}
	}

	// Kernel timing must see the kernels, not the memo tables: with
	// caching on, the second worker setting would replay the first
	// setting's cache and time map lookups instead of LP solves.
	bvc.SetCaching(false)
	bvc.ResetCaches()
	defer func() {
		bvc.SetCaching(true)
		bvc.ResetCaches()
		par.SetKernelWorkers(0)
		geom.SetFilteredPredicates(true)
	}()

	rep := &KernelReport{
		NumCPU:                 runtime.NumCPU(),
		GOMAXPROCS:             runtime.GOMAXPROCS(0),
		Workers:                workers,
		MinSweepSpeedup:        math.Inf(1),
		MinSingleThreadSpeedup: math.Inf(1),
		OutputsIdentical:       true,
	}
	countersBefore := metrics.Default().Snapshot()

	const targetSeconds = 0.25
	const maxRounds = 64
	for _, def := range kernelDefs(seed) {
		// Calibrate the round count on the parallel setting so each
		// case gets a stable timing window without ballooning the
		// sequential pass.
		par.SetKernelWorkers(workers)
		calStart := time.Now()
		calFp := newFingerprint()
		def.run(&calFp)
		calElapsed := time.Since(calStart).Seconds()
		rounds := 1
		if calElapsed > 0 && calElapsed < targetSeconds {
			if rounds = int(targetSeconds / calElapsed); rounds > maxRounds {
				rounds = maxRounds
			}
		}

		seqElapsed, seqFp, err := timeKernel(def, 1, rounds)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", def.name, err)
		}
		parElapsed, parFp, err := timeKernel(def, workers, rounds)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", def.name, err)
		}
		legacyElapsed, legacyFp, err := timeKernelLegacy(def, rounds)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", def.name, err)
		}

		// The fingerprint equality across all three lanes doubles as a
		// parity assertion: the filtered screens must not move a single
		// output bit versus the legacy exact path.
		identical := seqFp == parFp && calFp == parFp && legacyFp == seqFp
		c := KernelCase{
			Name:                def.name,
			Rounds:              rounds,
			Workers1Seconds:     seqElapsed,
			WorkersNSeconds:     parElapsed,
			SeqRoundsPerSec:     float64(rounds) / seqElapsed,
			ParRoundsPerSec:     float64(rounds) / parElapsed,
			Speedup:             seqElapsed / parElapsed,
			LegacySeconds:       legacyElapsed,
			SingleThreadSpeedup: legacyElapsed / seqElapsed,
			SpeedupGate:         def.gate,
			SingleThreadGate:    def.stGate,
			OutputsIdentical:    identical,
		}
		rep.Cases = append(rep.Cases, c)
		if !identical {
			rep.OutputsIdentical = false
			fmt.Fprintf(diag, "bench: kernel %s outputs differ across worker/filter settings\n", def.name)
		}
		if def.gate >= 2 && c.Speedup < rep.MinSweepSpeedup {
			rep.MinSweepSpeedup = c.Speedup
		}
		if def.stGate > 0 && c.SingleThreadSpeedup < rep.MinSingleThreadSpeedup {
			rep.MinSingleThreadSpeedup = c.SingleThreadSpeedup
		}
		fmt.Fprintf(diag, "bench: kernel %-26s %2d rounds  par %.2fx  single-thread %.2fx\n",
			def.name, rounds, c.Speedup, c.SingleThreadSpeedup)
	}
	if math.IsInf(rep.MinSweepSpeedup, 1) {
		rep.MinSweepSpeedup = 0
	}
	if math.IsInf(rep.MinSingleThreadSpeedup, 1) {
		rep.MinSingleThreadSpeedup = 0
	}
	rep.FastPathCounters = fastPathCounters(metrics.Default().Snapshot().Diff(countersBefore))

	rep.CacheHitNsPerOp, rep.CacheHitAllocsPerOp = measureCacheHit(seed)

	if !rep.OutputsIdentical {
		return rep, fmt.Errorf("kernel outputs differ between worker settings")
	}
	return rep, nil
}

// timeKernel runs def for rounds iterations at the given worker count
// and returns the elapsed wall time and the (round-invariant) output
// fingerprint.
func timeKernel(def kernelDef, workers, rounds int) (float64, fingerprint, error) {
	par.SetKernelWorkers(workers)
	var first fingerprint
	start := time.Now()
	for r := 0; r < rounds; r++ {
		fp := newFingerprint()
		def.run(&fp)
		if r == 0 {
			first = fp
		} else if fp != first {
			return 0, 0, fmt.Errorf("nondeterministic across rounds at %d workers", workers)
		}
	}
	return time.Since(start).Seconds(), first, nil
}

// timeKernelLegacy runs def for rounds iterations on the legacy exact
// path: one worker, filtered predicates off — the kernel code as it
// stood before the fast-path work.
func timeKernelLegacy(def kernelDef, rounds int) (float64, fingerprint, error) {
	geom.SetFilteredPredicates(false)
	defer geom.SetFilteredPredicates(true)
	return timeKernel(def, 1, rounds)
}

// fastPathCounterPrefixes selects the counters the kernel report
// snapshots: the fast-path mechanisms whose hit rates explain the
// measured speedups.
var fastPathCounterPrefixes = []string{
	"geom_filter_",
	"relax_prefilter_separation_",
	"relax_kproj_",
	"relax_row_arena_",
	"memo_key_pool_",
}

func fastPathCounters(diff *metrics.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range diff.Counters {
		for _, p := range fastPathCounterPrefixes {
			if strings.HasPrefix(name, p) {
				out[name] = v
				break
			}
		}
	}
	return out
}

// measureCacheHit times the warm memo lookup path — pooled key build
// plus sharded Get on a cached InHull result — and reports ns/op and
// allocs/op (the hot path is allocation-free; see the zero-alloc
// acceptance gate in CompareKernels).
func measureCacheHit(seed int64) (nsPerOp, allocsPerOp float64) {
	bvc.SetCaching(true)
	bvc.ResetCaches()
	s := kernelSet(seed+5, 8, 4)
	q := vec.Mean(s.Points())
	geom.InHull(q, s) // warm the entry

	const ops = 50000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		geom.InHull(q, s)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	bvc.SetCaching(false)
	bvc.ResetCaches()
	return float64(elapsed.Nanoseconds()) / ops, float64(after.Mallocs-before.Mallocs) / ops
}

// Summarize prints the human-readable digest of a kernel report.
func (r *KernelReport) Summarize(w io.Writer) {
	fmt.Fprintf(w, "kernel bench: 1 vs %d workers on %d CPU(s), GOMAXPROCS %d\n",
		r.Workers, r.NumCPU, r.GOMAXPROCS)
	for _, c := range r.Cases {
		fmt.Fprintf(w, "  %-26s %2d rounds  legacy %7.1f ms  seq %7.1f ms  par %7.1f ms  par %5.2fx  1-thread %5.2fx  identical: %v\n",
			c.Name, c.Rounds, 1e3*c.LegacySeconds, 1e3*c.Workers1Seconds, 1e3*c.WorkersNSeconds,
			c.Speedup, c.SingleThreadSpeedup, c.OutputsIdentical)
	}
	fmt.Fprintf(w, "  min sweep speedup %.2fx, min single-thread speedup %.2fx, cache hit %.0f ns/op %.2f allocs/op, outputs identical: %v\n",
		r.MinSweepSpeedup, r.MinSingleThreadSpeedup, r.CacheHitNsPerOp, r.CacheHitAllocsPerOp, r.OutputsIdentical)
	if len(r.FastPathCounters) > 0 {
		names := make([]string, 0, len(r.FastPathCounters))
		for name := range r.FastPathCounters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  fast-path counters:\n")
		for _, name := range names {
			fmt.Fprintf(w, "    %-42s %d\n", name, r.FastPathCounters[name])
		}
	}
}

// Write marshals the report to path as indented JSON (the committed
// BENCH_kernels.json format).
func (r *KernelReport) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadKernels reads a report written by (*KernelReport).Write.
func LoadKernels(path string) (*KernelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r KernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CompareKernels guards cur against the committed baseline: outputs
// must be bit-identical across worker and filter settings, the warm
// cache lookup must stay allocation-free, per-case parallel throughput
// must not regress by more than threshold, every single-thread-gated
// case must clear its fast-vs-legacy floor (on any machine — the
// comparison is same-core), and on machines with GOMAXPROCS >= 4 every
// parallel-gated case must clear its speedup gate. A baseline produced
// on a single-core machine cannot vouch for the parallel gates, so a
// multicore runner guarding one is a hard failure — regenerate the
// baseline on multicore hardware rather than silently weakening the
// guard.
func CompareKernels(cur, base *KernelReport, threshold float64, w io.Writer) error {
	if !cur.OutputsIdentical {
		return fmt.Errorf("kernel outputs differ across worker/filter settings")
	}
	if cur.CacheHitAllocsPerOp >= 0.5 {
		return fmt.Errorf("warm cache lookup allocates: %.2f allocs/op", cur.CacheHitAllocsPerOp)
	}
	multicore := cur.GOMAXPROCS >= 4
	if multicore && base.NumCPU < 4 {
		return fmt.Errorf("committed kernel baseline was produced on %d CPU(s) but this runner has GOMAXPROCS %d: the baseline's parallel numbers cannot arm the speedup gates — regenerate it on multicore hardware (go run ./scripts -kernels -update)",
			base.NumCPU, cur.GOMAXPROCS)
	}

	baseByName := make(map[string]KernelCase, len(base.Cases))
	for _, c := range base.Cases {
		baseByName[c.Name] = c
	}
	for _, c := range cur.Cases {
		b, ok := baseByName[c.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-26s par %5.2fx  1-thread %5.2fx (no baseline case)\n",
				c.Name, c.Speedup, c.SingleThreadSpeedup)
		default:
			fmt.Fprintf(w, "  %-26s par %5.2fx  1-thread %5.2fx  par %7.2f rounds/s (baseline %7.2f)\n",
				c.Name, c.Speedup, c.SingleThreadSpeedup, c.ParRoundsPerSec, b.ParRoundsPerSec)
			if b.ParRoundsPerSec > 0 {
				if loss := 1 - c.ParRoundsPerSec/b.ParRoundsPerSec; loss > threshold {
					return fmt.Errorf("kernel %s parallel throughput regressed %.1f%% (threshold %.0f%%)",
						c.Name, 100*loss, 100*threshold)
				}
			}
		}
		if c.SingleThreadGate > 0 && c.SingleThreadSpeedup < c.SingleThreadGate {
			return fmt.Errorf("kernel %s single-thread speedup %.2fx below its %.1fx fast-vs-legacy gate",
				c.Name, c.SingleThreadSpeedup, c.SingleThreadGate)
		}
		if multicore && c.SpeedupGate > 0 && c.Speedup < c.SpeedupGate {
			return fmt.Errorf("kernel %s speedup %.2fx below its %.1fx gate at GOMAXPROCS %d",
				c.Name, c.Speedup, c.SpeedupGate, cur.GOMAXPROCS)
		}
	}
	if !multicore {
		fmt.Fprintf(w, "  (GOMAXPROCS %d < 4: parallel speedup gates skipped; single-thread gates enforced above)\n", cur.GOMAXPROCS)
	}
	return nil
}
