package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"robustset"
	"robustset/internal/core"
	"robustset/internal/emd"
	"robustset/internal/points"
	"robustset/internal/trace"
	"robustset/internal/workload"
)

// serve-robust: 64 datasets of 2000 points. Bob holds every point with
// Gaussian noise (σ=4) plus 1% outliers; each op is one Robust{}
// one-shot fetch over the mux Client, rotating through the datasets.
const (
	robustDatasets = 64
	robustPoints   = 2000
	robustOutliers = robustPoints / 100
	robustSigma    = 4
	robustBudget   = 20
	robustRate     = 200 // nominal ops/s that sizes a run
)

type robustFirst struct {
	level  int
	digest uint64
	sprime []points.Point
}

type serveRobust struct {
	seed   uint64
	inst   []*workload.Instance
	params []robustset.Params
	names  []string

	srv    *robustset.Server
	stop   func()
	cl     *robustset.Client
	sess   []*robustset.ClientSession
	log    *robustset.TraceLog
	sink   traceSink
	dial   time.Duration
	first  []*robustFirst // first verified result per dataset
	keyBuf []uint64
	writes *writeProber
	// Per-loop result counters, reset by setup.
	verified, levels, tried int
}

func newServeRobust(seed uint64) (*serveRobust, error) {
	w := &serveRobust{seed: seed, first: make([]*robustFirst, robustDatasets)}
	for i := 0; i < robustDatasets; i++ {
		inst, err := workload.Generate(workload.Config{
			N:        robustPoints,
			Universe: universe,
			Outliers: robustOutliers,
			Noise:    workload.NoiseGaussian,
			Scale:    robustSigma,
			Seed:     rng(seed, uint64(i)).Uint64(),
		})
		if err != nil {
			return nil, err
		}
		w.inst = append(w.inst, inst)
		w.params = append(w.params, robustset.Params{
			Universe:   universe,
			Seed:       rng(seed, 1000+uint64(i)).Uint64(),
			DiffBudget: robustBudget,
		})
		w.names = append(w.names, fmt.Sprintf("robust-%02d", i))
	}
	return w, nil
}

func (w *serveRobust) passLen() int { return robustDatasets }

func (w *serveRobust) passes(seconds int) int {
	return int(math.Ceil(float64(seconds*robustRate) / robustDatasets))
}

func (w *serveRobust) prepare() error { return nil }

// setup publishes every dataset, listens, dials one mux client and
// fetches each dataset once to build its cached sketch blob.
func (w *serveRobust) setup(ctx context.Context, traced bool, ops int) error {
	var opts []robustset.ServerOption
	var sessOpts []robustset.Option
	if traced {
		w.log = robustset.NewTraceLog(robustset.WithTraceCapacity(ops + robustDatasets))
		opts = append(opts, robustset.WithServerTracing(w.log))
		sessOpts = append(sessOpts, robustset.WithSessionTrace(w.sink.add))
	}
	w.verified, w.levels, w.tried = 0, 0, 0
	w.writes = newWriteProber(w.seed)
	w.srv = robustset.NewServer(opts...)
	for i, inst := range w.inst {
		if _, err := w.srv.Publish(w.names[i], w.params[i], inst.Alice); err != nil {
			return err
		}
	}
	addr, stop, err := serve(w.srv)
	if err != nil {
		return err
	}
	w.stop = stop
	t0 := time.Now()
	w.cl, err = robustset.DialClient(ctx, addr)
	w.dial = time.Since(t0)
	if err != nil {
		return err
	}
	w.sess = w.sess[:0]
	for _, name := range w.names {
		cs, err := w.cl.Session(name, robustset.Robust{}, sessOpts...)
		if err != nil {
			return err
		}
		w.sess = append(w.sess, cs)
	}
	for i, cs := range w.sess {
		if _, _, err := cs.Fetch(ctx, w.inst[i].Bob); err != nil {
			return fmt.Errorf("warm-up fetch %s: %w", w.names[i], err)
		}
	}
	w.sink.take()
	return nil
}

func (w *serveRobust) op(ctx context.Context, i int) opResult {
	ds := i % robustDatasets
	res, st, err := w.sess[ds].Fetch(ctx, w.inst[ds].Bob)
	return opResult{
		err:    err,
		out:    res,
		wire:   st.Total(),
		naive:  naiveBytes(robustPoints),
		traces: w.sink.take(),
	}
}

// verify checks the result's size and that every fetch of a dataset
// returns the same multiset at the same level as its first fetch; the
// first one is kept for the EMD check.
func (w *serveRobust) verify(i int, r *opResult) error {
	ds := i % robustDatasets
	res := r.out
	if res.Robust == nil {
		return fmt.Errorf("%s: robust fetch returned no robust result", w.names[ds])
	}
	if len(res.SPrime) != robustPoints {
		return fmt.Errorf("%s: result has %d points, want %d", w.names[ds], len(res.SPrime), robustPoints)
	}
	var err error
	if w.keyBuf, err = sortedKeys(w.keyBuf, res.SPrime); err != nil {
		return err
	}
	got := robustFirst{level: res.Robust.Level, digest: digest(w.keyBuf)}
	switch f := w.first[ds]; {
	case f == nil:
		got.sprime = res.SPrime
		w.first[ds] = &got
	case f.level != got.level || f.digest != got.digest:
		return fmt.Errorf("%s: result differs from the dataset's first fetch", w.names[ds])
	}
	w.verified++
	w.levels += res.Robust.Level
	w.tried += len(res.Robust.Outcomes)
	return w.writes.probe(w.srv)
}

// emdRatio is Σ EMD(result, Alice) ÷ Σ natural-pairing cost over the
// datasets; the pairing cost is an upper bound on EMD_k. The pooled
// ratio is used rather than the per-dataset maximum, which spreads by
// a fifth between seeds.
func (w *serveRobust) emdRatio() (float64, error) {
	var got, pairing float64
	for ds, f := range w.first {
		if f == nil {
			continue // no verified fetch; the run already reports it failed
		}
		e, err := emd.Exact(f.sprime, w.inst[ds].Alice, points.L1)
		if err != nil {
			return 0, err
		}
		got += e
		pairing += w.inst[ds].PairNoiseL1
	}
	if pairing == 0 {
		return 0, nil
	}
	return got / pairing, nil
}

func (w *serveRobust) writeLatencies() []time.Duration { return w.writes.lat }

func (w *serveRobust) serverTraces() []*trace.Snapshot { return w.log.Recent() }

func (w *serveRobust) layers(m map[string]float64, _ int) error {
	m["server.dial_ms"] = ms(w.dial)
	m["core.chosen_level"] = perOp(float64(w.levels), w.verified)
	m["core.levels_tried_per_op"] = perOp(float64(w.tried), w.verified)
	const probes = 16
	builds := make([]time.Duration, 0, probes)
	recs := make([]time.Duration, 0, probes)
	for ds := 0; ds < probes; ds++ {
		inst, p := w.inst[ds], w.params[ds]
		t0 := time.Now()
		if _, err := core.NewMaintainer(p, inst.Alice); err != nil {
			return err
		}
		builds = append(builds, time.Since(t0))
		sk, err := core.BuildSketch(p, inst.Alice)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := core.Reconcile(sk, inst.Bob); err != nil {
			return err
		}
		recs = append(recs, time.Since(t0))
	}
	m["core.sketch_build_ms"] = ms(quantileDur(builds, 0.5))
	m["core.reconcile_ms"] = ms(quantileDur(recs, 0.5))
	return nil
}

func (w *serveRobust) teardown() {
	if w.cl != nil {
		_ = w.cl.Close()
		w.cl = nil
	}
	if w.stop != nil {
		w.stop()
		w.stop = nil
	}
	w.srv = nil
}
