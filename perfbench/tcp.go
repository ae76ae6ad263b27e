package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/transport"
)

// tcpShape runs acs-stream's proposals (same input family) on a 4-node
// loopback-TCP cluster.
var tcpShape = streamShape

// clusterTimeout bounds one request on TCP: a node that fails leaves
// its peers waiting at the round barrier until the context ends.
const clusterTimeout = 30 * time.Second

// bindListeners binds one loopback listener per node.
func bindListeners(n int) ([]net.Listener, map[int]string, error) {
	lns := make([]net.Listener, n)
	peers := make(map[int]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	return lns, peers, nil
}

// closeAll closes listeners a node did not take over (a listener a
// node's transport already closed returns an error, which is dropped).
func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close() //nolint:errcheck // see above
		}
	}
}

// cluster runs node(ctx, i) for every node on its own goroutine and
// waits for all of them. A node's error or recovered panic cancels the
// others.
func cluster(n int, node func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("node %d: %w: %v", i, errPanic, r)
					cancel()
				}
			}()
			if err := node(ctx, i); err != nil {
				errs[i] = fmt.Errorf("node %d: %w", i, err)
				cancel()
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runTCP runs one request through the public Run, one call per node
// with TransportTCP, as bvcnode -stream -selfcheck does. It returns
// each node's stream and the cluster's reconnect count.
func runTCP(spec *bvc.Spec, lns []net.Listener, peers map[int]string) ([][]bvc.ACSEpoch, int64, error) {
	defer closeAll(lns)
	streams := make([][]bvc.ACSEpoch, spec.N)
	reconnects := make([]int64, spec.N)
	err := cluster(spec.N, func(ctx context.Context, i int) error {
		res, err := bvc.Run(ctx, *spec, bvc.WithTransport(bvc.Transport{
			Kind: bvc.TransportTCP, Self: i, Peers: peers, Listener: lns[i],
		}))
		if err != nil {
			return err
		}
		streams[i] = res.ACS[i]
		reconnects[i] = res.Metrics.TransportReconnects
		return nil
	})
	var total int64
	for _, r := range reconnects {
		total += r
	}
	if err == nil && total > 0 {
		err = fmt.Errorf("%d TCP reconnects", total)
	}
	return streams, total, err
}

func tcpWorkload() workload {
	return workload{
		name: "acs-tcp",
		setup: func() error {
			bvc.ResetCaches()
			spec := tcpShape.spec(warmupSeed, -1)
			lns, peers, err := bindListeners(spec.N)
			if err != nil {
				return err
			}
			streams, _, err := runTCP(&spec, lns, peers)
			if err != nil {
				return err
			}
			return checkACS(&spec, streams, bvc.ComputeDeltaStar)
		},
		loop: func(seed int64, d time.Duration, traced bool, t *tally) (map[string]metric, error) {
			deadline := time.Now().Add(d)
			if traced {
				return tcpTraced(seed, deadline, t)
			}
			for i := 0; t.more(deadline); i++ {
				spec := tcpShape.spec(seed, i)
				bvc.ResetCaches()
				lns, peers, err := bindListeners(spec.N)
				if err != nil {
					return nil, err
				}
				var streams [][]bvc.ACSEpoch
				sp, err := measure(func() (e error) {
					streams, _, e = runTCP(&spec, lns, peers)
					return e
				})
				if err == nil {
					err = checkACS(&spec, streams, bvc.ComputeDeltaStar)
				}
				t.record(tcpShape.epochs, sp, err)
			}
			return nil, nil
		},
	}
}

// timedTransport is the Transport span of one node: it times every
// call into the wrapped endpoint and keeps a sample of sent frames for
// the codec measurement.
type timedTransport struct {
	transport.Transport
	busy   time.Duration
	sample []transport.Frame
}

// codecSample is how many sent frames per node and request are kept
// for the codec measurement.
const codecSample = 64

func (t *timedTransport) Send(f transport.Frame) error {
	if len(t.sample) < codecSample {
		f.Data = append([]byte(nil), f.Data...)
		t.sample = append(t.sample, f)
	}
	t0 := time.Now()
	err := t.Transport.Send(f)
	t.busy += time.Since(t0)
	return err
}

func (t *timedTransport) Recv(ctx context.Context) (transport.Frame, error) {
	t0 := time.Now()
	f, err := t.Transport.Recv(ctx)
	t.busy += time.Since(t0)
	return f, err
}

// tcpNodeTrace is one node's spans and counters in a traced request.
type tcpNodeTrace struct {
	step                *stepTimer
	tr                  *timedTransport
	dial, run, close    time.Duration
	stats               transport.Stats
	rounds, delivered   int
	tags                tagCount
	epochs, slots, abaR int
}

// tcpTrace runs one traced request on the benchmark's own TCP wiring:
// per node DialTCP, RunSync over a timed Transport and a timed Step,
// then Close.
func tcpTrace(spec *bvc.Spec, lns []net.Listener, peers map[int]string) ([][]bvc.ACSEpoch, []*tcpNodeTrace, error) {
	defer closeAll(lns)
	nodes, err := acsNodes(spec)
	if err != nil {
		return nil, nil, err
	}
	traces := make([]*tcpNodeTrace, spec.N)
	err = cluster(spec.N, func(ctx context.Context, i int) error {
		nt := &tcpNodeTrace{step: &stepTimer{inner: nodes[i]}}
		traces[i] = nt
		t0 := time.Now()
		tr, err := transport.DialTCP(transport.TCPConfig{Self: i, Peers: peers, Listener: lns[i]})
		nt.dial = time.Since(t0)
		if err != nil {
			return err
		}
		nt.tr = &timedTransport{Transport: tr}
		t1 := time.Now()
		st, runErr := transport.RunSync(ctx, nt.tr, nt.step, 0, nt.tags.observe)
		nt.run = time.Since(t1)
		t2 := time.Now()
		closeErr := tr.Close()
		nt.close = time.Since(t2)
		nt.stats = tr.Stats()
		if runErr != nil {
			return runErr
		}
		if closeErr != nil {
			return fmt.Errorf("close: %w", closeErr)
		}
		nt.rounds, nt.delivered = st.Rounds, st.Delivered
		ns := nodes[i].Stats()
		nt.epochs, nt.slots, nt.abaR = ns.Epochs, ns.Slots, ns.ABARounds
		return nil
	})
	if err != nil {
		return nil, traces, err
	}
	streams := make([][]bvc.ACSEpoch, spec.N)
	for i, node := range nodes {
		streams[i] = stream(node)
	}
	return streams, traces, nil
}

// codecTime times EncodeFrame and DecodeFrame over the sampled frames
// and checks each round trip.
func codecTime(frames []transport.Frame) (time.Duration, error) {
	t0 := time.Now()
	for i := range frames {
		got, err := transport.DecodeFrame(transport.EncodeFrame(&frames[i]))
		if err != nil {
			return 0, err
		}
		if got.Tag != frames[i].Tag || len(got.Data) != len(frames[i].Data) {
			return 0, fmt.Errorf("frame %d did not round-trip", i)
		}
	}
	return time.Since(t0), nil
}

// tcpTraced runs each request three times from reset caches: through
// Run on TCP (untraced), through Run on the simulation (for
// transport.plane_share and parity), and through tcpTrace (traced).
// All three must seal the same streams.
func tcpTraced(seed int64, deadline time.Time, t *tally) (map[string]metric, error) {
	ls := newLayerSet()
	var tot acsTotals
	var kern kernelTrace
	var lib libraryDelta
	var untraced, simTime, traced, nodeSpans, transportBusy, codec time.Duration
	var frames, bytes, reconnects int64
	var codecFrames int
	n := tcpShape.n
	for i := 0; time.Now().Before(deadline); i++ {
		spec := tcpShape.spec(seed, i)
		bvc.ResetCaches()
		lns, peers, err := bindListeners(n)
		if err != nil {
			return nil, err
		}
		var plain [][]bvc.ACSEpoch
		var rc int64
		spU, errU := measure(func() (e error) {
			plain, rc, e = runTCP(&spec, lns, peers)
			return e
		})
		reconnects += rc
		bvc.ResetCaches()
		var sim [][]bvc.ACSEpoch
		spS, errS := measure(func() (e error) {
			sim, e = runSim(&spec)
			return e
		})
		bvc.ResetCaches()
		if lns, peers, err = bindListeners(n); err != nil {
			return nil, err
		}
		var streams [][]bvc.ACSEpoch
		var traces []*tcpNodeTrace
		var spT span
		lib.around(func() {
			spT, err = measure(func() (e error) {
				streams, traces, e = tcpTrace(&spec, lns, peers)
				return e
			})
		})
		err = errors.Join(err, errU, errS)
		if err == nil {
			untraced += spU.wall
			simTime += spS.wall
			traced += spT.wall
			var step, busy, spans, runner time.Duration
			for _, nt := range traces {
				step += nt.step.busy
				busy += nt.dial + nt.tr.busy + nt.close
				spans += nt.dial + nt.run + nt.close
				runner += nt.run - nt.step.busy - nt.tr.busy
				frames += nt.stats.FramesSent
				bytes += nt.stats.BytesSent
				reconnects += nt.stats.Reconnects
				tot.rounds += nt.rounds
				tot.msgs += nt.delivered
				tot.tags.rbc += nt.tags.rbc
				tot.tags.aba += nt.tags.aba
				if cd, cerr := codecTime(nt.tr.sample); cerr == nil {
					codec += cd
					codecFrames += len(nt.tr.sample)
				} else {
					err = fmt.Errorf("%w: codec: %v", errCheck, cerr)
				}
			}
			h := traces[spec.HonestIDs()[0]]
			tot.epochs += h.epochs
			tot.slots += h.slots
			tot.abaRounds += h.abaR
			tot.step += step / time.Duration(n)
			tot.engine += runner / time.Duration(n)
			transportBusy += busy / time.Duration(n)
			nodeSpans += spans / time.Duration(n)
			if !sameStreams(&spec, plain, sim) || !sameStreams(&spec, streams, sim) {
				t.mismatch++
				err = fmt.Errorf("%w: TCP and simulation streams differ", errCheck)
			}
		}
		if err == nil {
			err = checkACS(&spec, streams, kern.solve)
		}
		t.record(tcpShape.epochs, spT, err)
	}
	// Rounds and messages were summed over nodes; per epoch they are
	// reported per cluster, as on the simulation.
	tot.rounds /= n
	kern.set(ls, traced)
	tot.set(ls, &kern, n)
	setLayerCounters(ls, &lib, tot.epochs)
	e := float64(max(tot.epochs, 1))
	ls.set("transport.frames_per_epoch", float64(frames)/e)
	ls.set("transport.bytes_per_epoch", float64(bytes)/e)
	ls.set("transport.wait_ms_per_epoch", ms(transportBusy)/e)
	ls.set("transport.codec_us_per_frame", ratio(float64(codec.Nanoseconds())/1e3, float64(codecFrames)))
	ls.set("transport.plane_share", 1-ratio(simTime.Seconds(), untraced.Seconds()))
	ls.set("transport.reconnects", float64(reconnects))
	ls.set("trace.overhead_frac", ratio(traced.Seconds(), untraced.Seconds())-1)
	ls.set("trace.unexplained_frac", ratio((traced-nodeSpans).Seconds(), traced.Seconds()))
	return ls, nil
}
