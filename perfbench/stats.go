package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	bvc "relaxedbvc"
)

var (
	// errPanic marks a request that panicked and was recovered.
	errPanic = errors.New("recovered panic")
	// errCheck marks an output that failed an exact check: one the
	// protocol and the deterministic kernels fix bit for bit
	// (fingerprints, agreement, subset rules, δ* recomputed on the
	// agreed values, traced against untraced outputs).
	errCheck = errors.New("output check failed")
	// errValidity marks an output outside the protocol's validity
	// region by more than the check's floating-point tolerance.
	errValidity = errors.New("validity check failed")
	// errScaled tags a sweep failure on scaled inputs, so the run
	// record reports the scaled share's failures apart.
	errScaled = errors.New("scaled input")
)

// tally accumulates one run's requests. Every attempted request is
// either ok or failed; a failed request is an error the program
// returned, a recovered panic, or an output that failed a check.
type tally struct {
	attempted, failed, decisions int
	// wrong counts outputs that failed an exact check (a subset of
	// failed); mismatch counts traced runs whose outputs differ from the
	// untraced run of the same request. Either makes the run incorrect.
	// Validity failures, errors and panics count only as failed: the
	// geometry kernels' absolute tolerances already produce them today
	// (ROADMAP, scale-correct kernels).
	wrong, mismatch int
	lat             []float64 // per-request wall time, ms
	cpuLat          []float64 // per-span process CPU time per request, ms
	calLat          []float64 // cpuLat calibrated
	timed, cpu      time.Duration
	calCPU          float64 // calibrated CPU seconds
	alloc           uint64
	reasons         map[string]int
	cal             calibration
}

// record adds one request that is also its own timed span: its
// checked decisions, its span and its failure, if any.
func (t *tally) record(decisions int, sp span, err error) {
	t.span(sp, 1)
	t.request(decisions, sp.wall, err)
}

// span adds a timed span that served the given number of requests:
// its wall time, CPU time and allocation, and its CPU time per request
// as one latency sample, raw and calibrated.
func (t *tally) span(sp span, requests int) {
	t.cal.maybe()
	f := t.cal.factor()
	t.timed += sp.wall
	t.cpu += sp.cpu
	t.calCPU += sp.cpu.Seconds() * f
	t.alloc += sp.alloc
	perRequest := ms(sp.cpu) / float64(requests)
	t.cpuLat = append(t.cpuLat, perRequest)
	t.calLat = append(t.calLat, perRequest*f)
}

// request adds one request's wall latency and outcome.
func (t *tally) request(decisions int, wall time.Duration, err error) {
	t.attempted++
	t.lat = append(t.lat, ms(wall))
	if err == nil {
		t.decisions += decisions
		return
	}
	t.failed++
	kind := "error"
	switch {
	case errors.Is(err, errCheck):
		kind = "check"
		t.wrong++
	case errors.Is(err, errValidity):
		kind = "validity"
	case errors.Is(err, errPanic), errors.Is(err, bvc.ErrTrialPanic):
		kind = "panic"
	}
	if t.reasons == nil {
		t.reasons = make(map[string]int)
	}
	t.reasons[kind+": "+failureKey(err)]++
}

// minRequests is the fewest requests an untraced run serves, so that
// p90 has at least ten samples beyond it even when the machine is slow.
const minRequests = 100

// more reports whether an untraced loop should serve another request:
// until the deadline, and past it until minRequests were served.
func (t *tally) more(deadline time.Time) bool {
	return time.Now().Before(deadline) || t.attempted < minRequests
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// span is one timed stretch of work: its wall time, the CPU time the
// whole process spent in it (all threads, user and system; time the
// hypervisor steals from the virtual CPU is not counted), and the
// bytes it allocated.
type span struct {
	wall, cpu time.Duration
	alloc     uint64
}

// measure runs fn as one timed span. A panic inside fn is recovered
// and returned as an error wrapping errPanic.
func measure(fn func() error) (sp span, err error) {
	a0 := allocBytes()
	c0 := cpuTime()
	t0 := time.Now()
	defer func() {
		sp.wall = time.Since(t0)
		sp.cpu = cpuTime() - c0
		sp.alloc = allocBytes() - a0
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	return span{}, fn()
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// allocBytes returns the cumulative bytes allocated on the heap.
func allocBytes() uint64 {
	metrics.Read(memSamples[:1])
	return memSamples[0].Value.Uint64()
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint64 {
	metrics.Read(memSamples[1:])
	return memSamples[1].Value.Uint64()
}

// maxRSSMB returns the process's peak resident set size in MiB, or 0
// if the kernel does not report it.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailCount is the number of samples at or above the q-quantile.
func tailCount(n int, q float64) int {
	return n - int(math.Floor(q*float64(n-1)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// libraryDelta accumulates the library's cumulative counters
// (MetricsSnapshot) and kernel cache counters (CacheStats) over traced
// spans. ResetCaches zeroes the cache counters, so each span adds its
// own before/after difference.
type libraryDelta struct {
	counters             map[string]int64
	minimax, relax, geom [2]int64 // hits, misses
	evictions            int64
}

// around runs fn and adds the counter changes it caused.
func (l *libraryDelta) around(fn func()) {
	before, c0 := bvc.MetricsSnapshot().Counters, bvc.CacheStats()
	fn()
	c1 := bvc.CacheStats()
	if l.counters == nil {
		l.counters = make(map[string]int64)
	}
	for k, v := range bvc.MetricsSnapshot().Counters {
		l.counters[k] += v - before[k]
	}
	acc := func(dst *[2]int64, b, a bvc.CacheCounters) {
		dst[0] += a.Hits - b.Hits
		dst[1] += a.Misses - b.Misses
		l.evictions += a.Evictions - b.Evictions
	}
	acc(&l.minimax, c0.Minimax, c1.Minimax)
	acc(&l.relax, c0.Relax, c1.Relax)
	acc(&l.geom, c0.Geometry, c1.Geometry)
}

func (l *libraryDelta) f(name string) float64 { return float64(l.counters[name]) }

func hitRatio(hm [2]int64) float64 { return ratio(float64(hm[0]), float64(hm[0]+hm[1])) }

// setLayerCounters fills the LP, filter and memo metrics from counter
// deltas over the traced spans, per decision.
func setLayerCounters(ls layerSet, d *libraryDelta, decisions int) {
	solves := d.f("lp_solves_total")
	if solves > 0 {
		ls.set("lp.solves_per_trial", solves/float64(max(decisions, 1)))
		ls.set("lp.pivots_per_solve", d.f("lp_pivots_total")/solves)
		ls.set("lp.iteration_limit_frac", d.f("lp_iteration_limit_total")/solves)
		ls.set("lp.infeasible_frac", d.f("lp_infeasible_total")/solves)
	}
	if w := d.f("lp_warm_attempts_total"); w > 0 {
		ls.set("lp.warm_hit_ratio", d.f("lp_warm_hits_total")/w)
	}
	decided := d.f("geom_filter_accepts_total") + d.f("geom_filter_rejects_total") + d.f("geom_filter_separation_rejects_total")
	fallbacks := d.f("geom_filter_fallbacks_total") + d.f("geom_filter_separation_fallbacks_total")
	if decided+fallbacks > 0 {
		ls.set("geom.filter_decided_ratio", decided/(decided+fallbacks))
	}
	if d.minimax[0]+d.minimax[1] > 0 {
		ls.set("memo.minimax.hit_ratio", hitRatio(d.minimax))
	}
	if d.relax[0]+d.relax[1] > 0 {
		ls.set("memo.relax.hit_ratio", hitRatio(d.relax))
	}
	if d.geom[0]+d.geom[1] > 0 {
		ls.set("memo.geom.hit_ratio", hitRatio(d.geom))
	}
	ls.set("memo.evictions", float64(d.evictions))
}
