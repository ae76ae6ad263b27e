// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed number of seconds, checks every
// request's output, and prints one JSON result as its last line:
//
//	perfbench --workload acs-kernel --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced
// request loop. With --trace 1 it runs the same requests through the
// benchmark's own traced wiring and reports the per-layer split. See
// NOTES.md for the workloads, the span tree and how each metric is
// derived.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	bvc "relaxedbvc"
)

// A run sets its workload up at least minSetupReps times and goes on
// until the set-ups took setupBudget of wall time or maxSetupReps were
// done; setup_s is their median, so neither one-off process warm-up
// nor a short set-up's timer noise dominates it.
const (
	minSetupReps = 9
	maxSetupReps = 64
	setupBudget  = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload. setup prepares it (cache reset,
// input generation, listener binding, one checked warm-up request on
// fixed inputs) and may run several times; loop runs requests for the
// run's length d and records them in t, returning the per-layer metrics
// when traced.
type workload struct {
	name  string
	setup func() error
	loop  func(seed int64, d time.Duration, traced bool, t *tally) (map[string]metric, error)
}

func workloads() []workload {
	return []workload{
		acsWorkload("acs-kernel", kernelShape),
		acsWorkload("acs-stream", streamShape),
		tcpWorkload(),
		sweepWorkload(),
	}
}

func main() {
	name := flag.String("workload", "", "workload name (acs-kernel, acs-stream, acs-tcp, batch-sweep)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var w *workload
	ws := workloads()
	for i := range ws {
		if ws[i].name == *name {
			w = &ws[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	out, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run calibrates, sets the workload up repeatedly, runs its
// request loop for the given duration and assembles the result line.
func run(w *workload, seed int64, d time.Duration, traced bool) (*output, error) {
	var t tally
	for r := 0; r < calWindow; r++ {
		t.cal.sample()
	}
	var setups []setup
	var setupWall time.Duration
	for r := 0; r < maxSetupReps && (r < minSetupReps || setupWall < setupBudget); r++ {
		sp, err := measure(w.setup)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		t.cal.sample()
		setupWall += sp.wall
		setups = append(setups, setup{sp, sp.cpu.Seconds() * t.cal.factor()})
	}
	layers, err := w.loop(seed, d, traced, &t)
	if err != nil {
		return nil, err
	}
	if t.attempted == 0 {
		return nil, fmt.Errorf("no request completed within %v", d)
	}
	var idle []string
	if traced {
		idle = notExercised(layers)
	}
	printRecord(w.name, seed, traced, &t, setups, idle)
	out := &output{
		Correct:   t.wrong == 0 && t.mismatch == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
	}
	if traced {
		out.Metrics = layers
		return out, nil
	}
	out.Metrics = endToEnd(&t, setups)
	return out, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
// Throughput, latency and set-up time are process CPU time (all
// threads), scaled by the run's calibration (calib.go). On a shared
// virtual machine, wall time also counts the time the hypervisor gives
// the virtual CPUs to other guests, and the other guests' load changes
// the CPU time itself; together they moved wall-clock figures of one
// build and seed by 15-45% between runs. The raw CPU and wall-clock
// figures and the peak RSS are printed in the run record (see raw);
// peak RSS moved by 25% between runs of identical batch-sweep inputs,
// with the garbage collector racing two allocating workers, so it
// carries no bound.
func endToEnd(t *tally, setups []setup) map[string]metric {
	setupCal := make([]float64, len(setups))
	for i, s := range setups {
		setupCal[i] = s.cal
	}
	return map[string]metric{
		"decisions_per_cal_s":   {float64(t.decisions) / t.calCPU, "1/s"},
		"request_cal_ms_p50":    {quantile(t.calLat, 0.5), "ms"},
		"request_cal_ms_p90":    {quantile(t.calLat, 0.9), "ms"},
		"ok_frac":               {1 - t.failedFrac(), "frac"},
		"alloc_kb_per_decision": {float64(t.alloc) / 1024 / float64(max(t.decisions, 1)), "KB"},
		"setup_s":               {quantile(setupCal, 0.5), "s"},
	}
}

// setup is one timed set-up and its calibrated CPU seconds.
type setup struct {
	span
	cal float64
}

// raw computes the uncalibrated CPU-time and wall-clock counterparts of
// the end-to-end figures, and the peak RSS, for the run record.
func raw(t *tally, setups []setup) map[string]metric {
	setupWall := make([]float64, len(setups))
	for i, s := range setups {
		setupWall[i] = s.wall.Seconds()
	}
	return map[string]metric{
		"decisions_per_cpu_s": {float64(t.decisions) / t.cpu.Seconds(), "1/s"},
		"request_cpu_ms_p50":  {quantile(t.cpuLat, 0.5), "ms"},
		"request_cpu_ms_p90":  {quantile(t.cpuLat, 0.9), "ms"},
		"decisions_per_s":     {float64(t.decisions) / t.timed.Seconds(), "1/s"},
		"request_ms_p50":      {quantile(t.lat, 0.5), "ms"},
		"request_ms_p90":      {quantile(t.lat, 0.9), "ms"},
		"setup_wall_s":        {quantile(setupWall, 0.5), "s"},
		"calibration_ms":      {quantile(t.cal.samples, 0.5), "ms"},
		"max_rss_mb":          {maxRSSMB(), "MB"},
	}
}

// printRecord prints the run record: the machine and knob settings the
// numbers depend on, and the sample counts behind them.
func printRecord(name string, seed int64, traced bool, t *tally, setups []setup, idle []string) {
	rec := map[string]any{
		"workload":       name,
		"seed":           seed,
		"trace":          traced,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"kernel_workers": bvc.KernelWorkers(),
		"batch_workers":  batchWorkers(),
		"go_version":     runtime.Version(),
		"requests":       t.attempted,
		"decisions":      t.decisions,
		"failed":         t.failed,
		"failed_frac":    t.failedFrac(),
		"failures":       t.reasons,
		"p90_tail_count": tailCount(len(t.lat), 0.9),
		"cpu_samples":    len(t.cpuLat),
		"cal_samples":    len(t.cal.samples),
		"setup_reps":     len(setups),
		"raw":            raw(t, setups),
	}
	if traced {
		rec["not_exercised"] = idle
	}
	b, err := json.Marshal(rec)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Println("run-record:", string(b))
}

// notExercised sets every per-layer metric the workload never set to 0
// with its unit, and returns their names.
func notExercised(layers map[string]metric) []string {
	var idle []string
	for k, m := range layers {
		if m.Unit == "" {
			idle = append(idle, k)
			layers[k] = metric{0, unitOf(k)}
		}
	}
	sort.Strings(idle)
	return idle
}

// unitOf returns the unit declared for a per-layer metric in
// layerUnits.
func unitOf(name string) string {
	for _, l := range layerUnits {
		if l.name == name {
			return l.unit
		}
	}
	return "count"
}

// layerUnits lists every per-layer metric and its unit. A traced run
// reports all of them; a layer the workload never calls reports 0 and
// is named under not_exercised in the run record.
var layerUnits = []struct{ name, unit string }{
	{"kernel.decide_ms_p50", "ms"},
	{"kernel.decide_ms_p90", "ms"},
	{"kernel.share", "frac"},
	{"kernel.alloc_kb_per_decide", "KB"},
	{"kernel.gc_cycles_per_decide", "count"},
	{"acs.rounds_per_epoch", "count"},
	{"acs.msgs_per_epoch", "count"},
	{"acs.rbc_msgs_per_epoch", "count"},
	{"acs.aba_msgs_per_epoch", "count"},
	{"acs.aba_rounds_per_slot", "count"},
	{"acs.slots_per_epoch", "count"},
	{"acs.step_ms_per_epoch", "ms"},
	{"sched.engine_ms_per_epoch", "ms"},
	{"transport.frames_per_epoch", "count"},
	{"transport.bytes_per_epoch", "bytes"},
	{"transport.wait_ms_per_epoch", "ms"},
	{"transport.codec_us_per_frame", "us"},
	{"transport.plane_share", "frac"},
	{"transport.reconnects", "count"},
	{"lp.solves_per_trial", "count"},
	{"lp.pivots_per_solve", "count"},
	{"lp.iteration_limit_frac", "frac"},
	{"lp.infeasible_frac", "frac"},
	{"lp.warm_hit_ratio", "frac"},
	{"geom.filter_decided_ratio", "frac"},
	{"memo.minimax.hit_ratio", "frac"},
	{"memo.relax.hit_ratio", "frac"},
	{"memo.geom.hit_ratio", "frac"},
	{"memo.evictions", "count"},
	{"batch.busy_ratio", "frac"},
	{"batch.panic_frac", "frac"},
	{"batch.trial_ms_p50.unit", "ms"},
	{"batch.trial_ms_p50.scaled", "ms"},
	{"consensus.eig_nodes_per_trial", "count"},
	{"consensus.msgs_per_trial", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.unexplained_frac", "frac"},
}

// layerSet collects a traced run's per-layer metrics. Every name of
// layerUnits starts as not exercised (empty unit) until set.
type layerSet map[string]metric

func newLayerSet() layerSet {
	s := make(layerSet, len(layerUnits))
	for _, l := range layerUnits {
		s[l.name] = metric{}
	}
	return s
}

func (s layerSet) set(name string, v float64) {
	if _, ok := s[name]; !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	s[name] = metric{v, unitOf(name)}
}

var digits = regexp.MustCompile(`[0-9]+`)

// failureKey shortens an error to a tally key that groups failures of
// one kind (numbers such as trial and process ids are masked).
func failureKey(err error) string {
	msg := digits.ReplaceAllString(err.Error(), "#")
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	if len(msg) > 120 {
		msg = msg[:120]
	}
	return msg
}
