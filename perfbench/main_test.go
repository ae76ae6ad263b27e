package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	bvc "relaxedbvc"
)

// TestFailuresLandInFailedFrac plants a wrong output and a panicking
// request between two good ones and checks that both count as failed
// and that the wrong output makes the run incorrect.
func TestFailuresLandInFailedFrac(t *testing.T) {
	shape := streamShape
	shape.epochs = 2
	var tl tally
	tl.cal.sample()
	for i := 0; i < 2; i++ {
		spec := shape.spec(1, i)
		var streams [][]bvc.ACSEpoch
		sp, err := measure(func() (e error) {
			streams, e = runSim(&spec)
			return e
		})
		if err == nil {
			err = checkACS(&spec, streams, bvc.ComputeDeltaStar)
		}
		if err != nil {
			t.Fatalf("good request %d failed: %v", i, err)
		}
		tl.record(shape.epochs, sp, err)
	}

	// Wrong output: every honest node reports a shifted δ, so the
	// streams still agree with each other but not with the kernel.
	spec := shape.spec(1, 2)
	streams, err := runSim(&spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range spec.HonestIDs() {
		streams[i][1].Delta += 1e-3
	}
	wrong := checkACS(&spec, streams, bvc.ComputeDeltaStar)
	tl.record(shape.epochs, span{}, wrong)

	// Panicking request.
	sp, panicked := measure(func() error { panic("planted") })
	tl.record(shape.epochs, sp, panicked)

	if tl.attempted != 4 || tl.failed != 2 || tl.failedFrac() != 0.5 {
		t.Fatalf("attempted %d failed %d failed_frac %v, want 4, 2, 0.5", tl.attempted, tl.failed, tl.failedFrac())
	}
	if tl.wrong != 1 {
		t.Fatalf("wrong = %d, want 1 (the planted output)", tl.wrong)
	}
	if got := endToEnd(&tl, []setup{{}})["ok_frac"].Value; got != 0.5 {
		t.Fatalf("ok_frac = %v, want 0.5", got)
	}
	if len(tl.reasons) != 2 {
		t.Fatalf("failure kinds %v, want a check and a panic", tl.reasons)
	}
}

// TestValidityFailureStaysCorrect checks that an output outside the
// validity region counts as failed, is reported under the scaled share
// when its inputs were scaled, and does not make the run incorrect.
func TestValidityFailureStaysCorrect(t *testing.T) {
	var tl tally
	tr := trial{scaled: true}
	tl.request(1, time.Millisecond, tr.mark(fmt.Errorf("%w: planted", errValidity)))
	if tl.failed != 1 || tl.wrong != 0 {
		t.Fatalf("failed %d wrong %d, want 1 and 0", tl.failed, tl.wrong)
	}
	for k := range tl.reasons {
		if !strings.HasPrefix(k, "validity: scaled input") {
			t.Fatalf("failure reported as %q", k)
		}
	}
}

// TestInputsFromSeed checks that inputs depend only on (seed, input
// family, request index), and that acs-tcp runs acs-stream's inputs.
func TestInputsFromSeed(t *testing.T) {
	a, b := streamShape.spec(7, 3), tcpShape.spec(7, 3)
	if fmt.Sprint(a.Proposals) != fmt.Sprint(b.Proposals) {
		t.Fatal("acs-tcp and acs-stream proposals differ on one seed and index")
	}
	if fmt.Sprint(a.Proposals) == fmt.Sprint(streamShape.spec(8, 3).Proposals) {
		t.Fatal("another seed drew the same proposals")
	}
	x, y := sweepChunk(7, 2), sweepChunk(7, 2)
	if fmt.Sprint(x[5].spec.Inputs) != fmt.Sprint(y[5].spec.Inputs) {
		t.Fatal("batch-sweep inputs are not a function of the seed")
	}
	scaled := 0
	for _, tr := range x[:sweepConfigs] {
		if tr.scaled {
			scaled++
		}
	}
	if scaled*scaledEvery != sweepConfigs {
		t.Fatalf("%d of %d configurations scaled, want one in %d", scaled, sweepConfigs, scaledEvery)
	}
}

// TestSweepFailuresRepeat checks that a sweep run's trials, and so its
// failures, are fixed by the seed and the run length: two runs of one
// seed attempt the same trials and fail the same ones.
func TestSweepFailuresRepeat(t *testing.T) {
	const d = 250 * time.Millisecond
	w := sweepWorkload()
	var a, b tally
	for _, tl := range []*tally{&a, &b} {
		tl.cal.sample()
		if _, err := w.loop(3, d, false, tl); err != nil {
			t.Fatal(err)
		}
	}
	chunks, _ := sweepPlan(d, false)
	want := chunks * sweepConfigs * sweepRepeats
	if a.attempted != want || b.attempted != want {
		t.Fatalf("attempted %d and %d, want %d", a.attempted, b.attempted, want)
	}
	if a.failed != b.failed || fmt.Sprint(a.reasons) != fmt.Sprint(b.reasons) {
		t.Fatalf("failures differ between runs of one seed: %v and %v", a.reasons, b.reasons)
	}
}

// TestTracedParity runs one traced request of each workload: the
// traced wiring must seal the same streams as Run (and, on acs-tcp, as
// the simulation) and report no failure.
func TestTracedParity(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			var tl tally
			ls, err := w.loop(1, time.Millisecond, true, &tl)
			if err != nil {
				t.Fatal(err)
			}
			if tl.attempted == 0 || tl.mismatch != 0 || tl.wrong != 0 {
				t.Fatalf("attempted %d mismatch %d wrong %d (%v)", tl.attempted, tl.mismatch, tl.wrong, tl.reasons)
			}
			if len(ls) != len(layerUnits) {
				t.Fatalf("%d per-layer metrics, want %d", len(ls), len(layerUnits))
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the benchmark
// prints are exactly those BENCHMARK.json declares, with their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	printed := func(ms map[string]metric) []string {
		var out []string
		for k, m := range ms {
			out = append(out, k+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	var tl tally
	tl.cal.sample()
	tl.record(1, span{wall: 1, cpu: 1}, nil)
	if got, want := printed(endToEnd(&tl, []setup{{}})), declared(spec.EndToEnd); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
	}
	ls := newLayerSet()
	for _, l := range layerUnits {
		ls.set(l.name, 1)
	}
	if got, want := printed(ls), declared(spec.PerLayer); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var want []string
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, want)
	}
}
