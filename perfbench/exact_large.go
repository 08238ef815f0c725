package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"robustset"
	"robustset/internal/cpi"
	"robustset/internal/gf"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/trace"
)

// exact-large: one 200k-point dataset; the client holds a copy with 10
// points replaced. Ops rotate ExactIBLT → Ranged → CPI, each required to
// return Alice's multiset exactly.
const (
	exactPoints   = 200_000
	exactReplaced = 10
	exactDiff     = 2 * exactReplaced
	exactBudget   = 20  // sizes the CPI capacity: 2·20+8
	exactRate     = 1.4 // nominal rotations per second that size a run
	exactName     = "large"
)

var exactStrategies = []robustset.Strategy{robustset.ExactIBLT{}, robustset.Ranged{}, robustset.CPI{}}

type exactLarge struct {
	seed      uint64
	params    robustset.Params
	alice     []points.Point
	bob       []points.Point
	aliceKeys []uint64 // sorted

	srv    *robustset.Server
	stop   func()
	cl     *robustset.Client
	sess   []*robustset.ClientSession
	log    *robustset.TraceLog
	sink   traceSink
	dial   time.Duration
	keyBuf []uint64
	writes *writeProber
}

func newExactLarge(seed uint64) (*exactLarge, error) {
	r := rng(seed, 1)
	w := &exactLarge{
		seed:   seed,
		params: robustset.Params{Universe: universe, Seed: r.Uint64(), DiffBudget: exactBudget},
		alice:  uniformPoints(r, exactPoints),
	}
	w.bob = points.Clone(w.alice)
	for _, i := range r.Perm(exactPoints)[:exactReplaced] {
		w.bob[i] = uniformPoints(r, 1)[0]
	}
	var err error
	w.aliceKeys, err = sortedKeys(nil, w.alice)
	return w, err
}

func (w *exactLarge) passLen() int { return len(exactStrategies) }

func (w *exactLarge) passes(seconds int) int { return int(math.Ceil(float64(seconds) * exactRate)) }

func (w *exactLarge) prepare() error { return nil }

// setup publishes the dataset, listens, dials one mux client and runs
// one Ranged fetch, which builds the dataset's lazy range tree.
func (w *exactLarge) setup(ctx context.Context, traced bool, ops int) error {
	var opts []robustset.ServerOption
	var sessOpts []robustset.Option
	if traced {
		w.log = robustset.NewTraceLog(robustset.WithTraceCapacity(ops + 1))
		opts = append(opts, robustset.WithServerTracing(w.log))
		sessOpts = append(sessOpts, robustset.WithSessionTrace(w.sink.add))
	}
	w.writes = newWriteProber(w.seed)
	w.srv = robustset.NewServer(opts...)
	if _, err := w.srv.Publish(exactName, w.params, w.alice); err != nil {
		return err
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
	for _, s := range exactStrategies {
		cs, err := w.cl.Session(exactName, s, sessOpts...)
		if err != nil {
			return err
		}
		w.sess = append(w.sess, cs)
	}
	if _, _, err := w.sess[1].Fetch(ctx, w.bob); err != nil {
		return fmt.Errorf("warm-up ranged fetch: %w", err)
	}
	w.sink.take()
	return nil
}

func (w *exactLarge) op(ctx context.Context, i int) opResult {
	res, st, err := w.sess[i%len(w.sess)].Fetch(ctx, w.bob)
	return opResult{
		err:    err,
		out:    res,
		wire:   st.Total(),
		naive:  naiveBytes(exactPoints),
		traces: w.sink.take(),
	}
}

// verify requires the result to equal Alice's multiset exactly, then
// probes the write path.
func (w *exactLarge) verify(i int, r *opResult) error {
	var err error
	if w.keyBuf, err = sortedKeys(w.keyBuf, r.out.SPrime); err != nil {
		return err
	}
	if !slices.Equal(w.keyBuf, w.aliceKeys) {
		return fmt.Errorf("%s: result (%d points) is not Alice's multiset", exactStrategies[i%len(exactStrategies)].Name(), len(r.out.SPrime))
	}
	return w.writes.probe(w.srv)
}

// emdRatio: every verified result equals Alice's set, so the achieved
// EMD equals the optimum (both 0) and the ratio is 1.
func (w *exactLarge) emdRatio() (float64, error) { return 1, nil }

func (w *exactLarge) writeLatencies() []time.Duration { return w.writes.lat }

func (w *exactLarge) serverTraces() []*trace.Snapshot { return w.log.Recent() }

// layers times the exact protocols' kernels on the workload's own sets:
// an IBLT subtract+peel sized like ExactIBLT's table, CPI's rational
// interpolation at CPI's capacity, and a bulk range-tree build of Bob's
// points.
func (w *exactLarge) layers(m map[string]float64, _ int) error {
	m["server.dial_ms"] = ms(w.dial)
	ak, bk := exactKeys(w.alice), exactKeys(w.bob)

	cfg := iblt.Config{
		Cells:     iblt.RecommendedCells(2*exactDiff, 4),
		HashCount: 4,
		KeyLen:    points.EncodedSize(universe.Dim) + 4,
		Seed:      hashutil.DeriveSeed(w.params.Seed, "exact/iblt"),
	}
	ta, err := ibltOf(cfg, ak)
	if err != nil {
		return err
	}
	tb, err := ibltOf(cfg, bk)
	if err != nil {
		return err
	}
	scratch, err := iblt.New(cfg)
	if err != nil {
		return err
	}
	decode := make([]time.Duration, 0, 101)
	for k := 0; k < cap(decode); k++ {
		if err := scratch.CopyFrom(ta); err != nil {
			return err
		}
		t0 := time.Now()
		if err := scratch.Sub(tb); err != nil {
			return err
		}
		diff, err := scratch.DecodeMut()
		decode = append(decode, time.Since(t0))
		if err != nil {
			return err
		}
		if diff.Size() != exactDiff {
			return fmt.Errorf("iblt decoded %d keys, want %d", diff.Size(), exactDiff)
		}
	}
	m["iblt.decode_us"] = us(quantileDur(decode, 0.5))

	capacity := 2*exactBudget + 8
	cpiSeed := hashutil.DeriveSeed(w.params.Seed, "cpisync/sketch")
	sa, err := cpi.NewSketch(cpiElems(w.params.Seed, ak), capacity, cpiSeed)
	if err != nil {
		return err
	}
	sb, err := cpi.NewSketch(cpiElems(w.params.Seed, bk), capacity, cpiSeed)
	if err != nil {
		return err
	}
	d, err := medianOf(5, func() error {
		onlyA, onlyB, err := cpi.Diff(sa, sb)
		if err == nil && len(onlyA)+len(onlyB) != exactDiff {
			err = fmt.Errorf("cpi decoded %d elements, want %d", len(onlyA)+len(onlyB), exactDiff)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["cpi.decode_ms"] = ms(d)

	rcfg := protocol.RangedConfig{Universe: universe, Seed: w.params.Seed}
	d, err = medianOf(3, func() error {
		_, err := protocol.BuildRangeTree(rcfg, w.bob)
		return err
	})
	m["ranges.bulk_build_ms"] = ms(d)
	return err
}

func (w *exactLarge) teardown() {
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

// exactKeys are the exact protocols' keys: a point's encoding plus its
// little-endian occurrence index, so a multiset becomes a set.
func exactKeys(pts []points.Point) [][]byte {
	occ := make(map[string]uint32, len(pts))
	keys := make([][]byte, len(pts))
	for i, p := range pts {
		enc := points.EncodeNew(p)
		o := occ[string(enc)]
		occ[string(enc)] = o + 1
		keys[i] = binary.LittleEndian.AppendUint32(enc, o)
	}
	return keys
}

func ibltOf(cfg iblt.Config, keys [][]byte) (*iblt.Table, error) {
	t, err := iblt.New(cfg)
	if err != nil {
		return nil, err
	}
	t.InsertAll(keys)
	return t, nil
}

// cpiElems maps exact keys to field elements the way CPI sync does.
func cpiElems(seed uint64, keys [][]byte) []uint64 {
	h := hashutil.NewHasher(hashutil.DeriveSeed(seed, "cpisync/elem"))
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = h.Hash(k) % gf.P
	}
	return out
}
