package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"robustset"
	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/trace"
)

// replica-churn: a durable primary and a durable mirror replica, each
// with 8 datasets of 20k points. Each op writes a batch of 8 adds and 8
// removes to one primary dataset, then runs one replication round
// (mux, Ranged{}, one worker, SyncAlways), which must apply exactly
// 8 adds and 8 removes.
const (
	churnDatasets = 8
	churnPoints   = 20_000
	churnBatch    = 8
	churnHistory  = 16  // batches per dataset in the untimed previous life
	churnRate     = 0.5 // nominal passes over the datasets per second
)

type replicaChurn struct {
	seed   uint64
	dir    string
	params robustset.Params
	names  []string
	// base is each dataset's content after the previous life, in the
	// harness's own order; model is the live copy ops draw removals from.
	base   [][]points.Point
	model  [][]points.Point
	setups int

	primary, replica *robustset.Server
	pm, rm           *robustset.Metrics
	stop             func()
	rep              *robustset.Replicator
	plog, rlog       *robustset.TraceLog
	dial, recover    time.Duration
	storeAtSetup     map[string]int64
	keyBuf           [3][]uint64
	// Per-loop counters of verified ops, reset by setup.
	writes    []time.Duration
	roundTime time.Duration
	sessions  int
}

func newReplicaChurn(seed uint64, dir string) (*replicaChurn, error) {
	r := rng(seed, 1)
	w := &replicaChurn{
		seed:   seed,
		dir:    dir,
		params: robustset.Params{Universe: universe, Seed: r.Uint64(), DiffBudget: 20},
	}
	for i := 0; i < churnDatasets; i++ {
		w.names = append(w.names, fmt.Sprintf("churn-%d", i))
		w.base = append(w.base, uniformPoints(r, churnPoints))
	}
	if err := w.previousLife(); err != nil {
		return nil, fmt.Errorf("previous life: %w", err)
	}
	return w, nil
}

// previousLife leaves the data dirs both servers recover from: each
// dataset published durably on both, then churnHistory batches applied
// to both, so recovery loads a snapshot and replays a WAL tail.
func (w *replicaChurn) previousLife() error {
	var srvs []*robustset.Server
	for _, role := range []string{"primary", "replica"} {
		srv := robustset.NewServer(robustset.WithServerDataDir(filepath.Join(w.dir, "life", role)))
		for i, name := range w.names {
			if _, err := srv.PublishDurable(name, w.params, w.base[i]); err != nil {
				return err
			}
		}
		srvs = append(srvs, srv)
	}
	r := rng(w.seed, 2)
	for i, name := range w.names {
		for b := 0; b < churnHistory; b++ {
			add, rem := churnBatchOf(r, &w.base[i])
			for _, srv := range srvs {
				if err := srv.Dataset(name).AddBatch(add); err != nil {
					return err
				}
				if err := srv.Dataset(name).RemoveBatch(rem); err != nil {
					return err
				}
			}
		}
	}
	for _, srv := range srvs {
		if err := srv.Close(); err != nil {
			return err
		}
	}
	return nil
}

// churnBatchOf draws one batch: churnBatch fresh points to add and
// churnBatch points to remove, picked from the harness's ordered copy
// (never from Snapshot order), which it updates.
func churnBatchOf(r *rand.Rand, model *[]points.Point) (add, rem []points.Point) {
	add = uniformPoints(r, churnBatch)
	m := *model
	for k := 0; k < churnBatch; k++ {
		j := r.IntN(len(m))
		rem = append(rem, m[j])
		m[j] = m[len(m)-1]
		m = m[:len(m)-1]
	}
	*model = append(m, add...)
	return add, rem
}

func (w *replicaChurn) passLen() int { return churnDatasets }

func (w *replicaChurn) passes(seconds int) int { return int(math.Ceil(float64(seconds) * churnRate)) }

// prepare gives the next set-up a fresh copy of the previous life's
// data dirs.
func (w *replicaChurn) prepare() error {
	w.setups++
	return copyTree(filepath.Join(w.dir, "life"), w.setupDir())
}

func (w *replicaChurn) setupDir() string {
	return filepath.Join(w.dir, fmt.Sprintf("setup-%d", w.setups))
}

// setup recovers both servers from their data dirs, starts the primary
// listening, builds the mirror replicator and runs the first round,
// which must find the two converged.
func (w *replicaChurn) setup(ctx context.Context, traced bool, ops int) error {
	w.pm, w.rm = robustset.NewMetrics(), robustset.NewMetrics()
	popts := []robustset.ServerOption{
		robustset.WithServerDataDir(filepath.Join(w.setupDir(), "primary")),
		robustset.WithServerMetrics(w.pm),
	}
	var ropts []robustset.ReplicatorOption
	if traced {
		w.plog = robustset.NewTraceLog(robustset.WithTraceCapacity(churnDatasets * (ops + 1)))
		w.rlog = robustset.NewTraceLog(robustset.WithTraceCapacity(ops + 1))
		popts = append(popts, robustset.WithServerTracing(w.plog))
		ropts = append(ropts, robustset.WithReplicatorTracing(w.rlog))
	}
	t0 := time.Now()
	w.primary = robustset.NewServer(popts...)
	w.replica = robustset.NewServer(
		robustset.WithServerDataDir(filepath.Join(w.setupDir(), "replica")),
		robustset.WithServerMetrics(w.rm))
	for _, srv := range []*robustset.Server{w.primary, w.replica} {
		for _, name := range w.names {
			if _, err := srv.PublishDurable(name, w.params, nil); err != nil {
				return err
			}
		}
	}
	w.recover = time.Since(t0)
	addr, stop, err := serve(w.primary)
	if err != nil {
		return err
	}
	w.stop = stop
	if traced {
		// The replicator dials on its first round; time a dial of the
		// same kind on its own.
		t0 := time.Now()
		cl, err := robustset.DialClient(ctx, addr)
		w.dial = time.Since(t0)
		if err != nil {
			return err
		}
		_ = cl.Close()
	}
	w.rep, err = robustset.NewReplicator(w.replica, []robustset.Peer{{Name: "primary", Addr: addr}},
		append(ropts,
			robustset.WithMirror(),
			robustset.WithReplicatorMux(),
			robustset.WithReplicatorStrategy(robustset.Ranged{}),
			robustset.WithReplicatorWorkers(1))...)
	if err != nil {
		return err
	}
	st, err := w.rep.RunRound(ctx)
	if err != nil {
		return err
	}
	if !st.Converged || st.Errors != 0 {
		return fmt.Errorf("first round not converged: %+v", st)
	}
	w.storeAtSetup = storeCounters(w.pm, w.rm)
	w.writes, w.roundTime, w.sessions = nil, 0, 0
	w.model = make([][]points.Point, len(w.base))
	for i, b := range w.base {
		w.model[i] = points.Clone(b)
	}
	return nil
}

func (w *replicaChurn) op(ctx context.Context, i int) opResult {
	ds := i % churnDatasets
	add, rem := churnBatchOf(rng(w.seed, 1_000_000+uint64(i)), &w.model[ds])
	d := w.primary.Dataset(w.names[ds])
	t0 := time.Now()
	err := d.AddBatch(add)
	if err == nil {
		err = d.RemoveBatch(rem)
	}
	t1 := time.Now()
	if err != nil {
		return opResult{err: err}
	}
	st, err := w.rep.RunRound(ctx)
	return opResult{
		err:   err,
		round: st,
		wire:  st.Bytes,
		naive: naiveBytes(churnDatasets * churnPoints),
		write: t1.Sub(t0),
		spans: []span{{name: "primary_write", start: t0, end: t1}},
	}
}

// verify requires the round to apply exactly the batch, and the touched
// dataset to be identical on the primary, the replica and the
// harness's model.
func (w *replicaChurn) verify(i int, r *opResult) error {
	if st := r.round; st.Errors != 0 || st.Added != churnBatch || st.Removed != churnBatch {
		return fmt.Errorf("round applied %d adds and %d removes with %d errors, want %d/%d/0",
			st.Added, st.Removed, st.Errors, churnBatch, churnBatch)
	}
	ds := i % churnDatasets
	sets := [][]points.Point{
		w.model[ds],
		w.primary.Dataset(w.names[ds]).Snapshot(),
		w.replica.Dataset(w.names[ds]).Snapshot(),
	}
	for k, s := range sets {
		var err error
		if w.keyBuf[k], err = sortedKeys(w.keyBuf[k], s); err != nil {
			return err
		}
	}
	if !slices.Equal(w.keyBuf[0], w.keyBuf[1]) {
		return fmt.Errorf("%s: primary differs from the written model", w.names[ds])
	}
	if !slices.Equal(w.keyBuf[1], w.keyBuf[2]) {
		return fmt.Errorf("%s: replica differs from primary after the round", w.names[ds])
	}
	w.writes = append(w.writes, r.write)
	w.roundTime += r.round.Duration
	w.sessions += r.round.Sessions
	return nil
}

// emdRatio: every round is verified to leave the replica identical to
// the primary, so the achieved EMD equals the optimum (both 0).
func (w *replicaChurn) emdRatio() (float64, error) { return 1, nil }

func (w *replicaChurn) writeLatencies() []time.Duration { return w.writes }

func (w *replicaChurn) serverTraces() []*trace.Snapshot {
	return append(w.plog.Recent(), w.rlog.Recent()...)
}

func (w *replicaChurn) layers(m map[string]float64, n int) error {
	ok := len(w.writes)
	m["server.dial_ms"] = ms(w.dial)
	m["store.recover_ms"] = ms(w.recover)
	now := storeCounters(w.pm, w.rm)
	m["store.replay_records"] = float64(w.storeAtSetup["store_replay_records_total"])
	m["store.write_us"] = perOp(float64(now["store_fsync_seconds_sum_ns"]-w.storeAtSetup["store_fsync_seconds_sum_ns"])/1e3, n)
	m["store.fsyncs_per_op"] = perOp(float64(now["store_fsync_seconds_count"]-w.storeAtSetup["store_fsync_seconds_count"]), n)
	m["store.wal_bytes_per_op"] = perOp(float64(now["store_wal_bytes_total"]-w.storeAtSetup["store_wal_bytes_total"]), n)
	m["cluster.round_ms"] = perOp(ms(w.roundTime), ok)
	m["cluster.sessions_per_round"] = perOp(float64(w.sessions), ok)
	d := w.replica.Dataset(w.names[0])
	snap, err := medianOf(21, func() error {
		if got := len(d.Snapshot()); got != churnPoints {
			return fmt.Errorf("snapshot has %d points, want %d", got, churnPoints)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["cluster.snapshot_ms"] = ms(snap)
	pts := d.Snapshot()
	rcfg := protocol.RangedConfig{Universe: universe, Seed: w.params.Seed}
	build, err := medianOf(11, func() error {
		_, err := protocol.BuildRangeTree(rcfg, pts)
		return err
	})
	m["ranges.bulk_build_ms"] = ms(build)
	return err
}

func (w *replicaChurn) teardown() {
	if w.rep != nil {
		_ = w.rep.Close()
		w.rep = nil
	}
	if w.stop != nil {
		w.stop()
		w.stop = nil
	}
	if w.replica != nil {
		_ = w.replica.Close()
		w.replica = nil
	}
	w.primary = nil
	_ = os.RemoveAll(w.setupDir())
}

// storeCounters sums the store families of both servers' registries.
func storeCounters(ms ...*robustset.Metrics) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range ms {
		for k, v := range m.Snapshot() {
			out[k] += v
		}
	}
	return out
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
