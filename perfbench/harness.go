package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"robustset"
	"robustset/internal/trace"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string // scratch directory, removed by the caller
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opResult is what one operation hands back to the loop. The loop
// times op; everything else (verification, bookkeeping) runs off the
// clock.
type opResult struct {
	err   error
	out   *robustset.SyncResult
	wire  int64                // wire bytes of the op, both directions
	naive int64                // bytes of the full-set encoding the op is compared with
	write time.Duration        // replication ops: the primary's write ack
	round robustset.RoundStats // replication ops
	// Traced runs only: client-side traces and the harness's own spans.
	traces []*trace.Snapshot
	spans  []span
}

// A bench is one workload: it owns its generated inputs and the
// program it runs them on.
type bench interface {
	// passLen is the number of ops in one pass over the workload's
	// rotation; runs are whole passes, so per-op counts repeat exactly.
	passLen() int
	// passes sizes a run of the given nominal length.
	passes(seconds int) int
	// prepare does untimed work before a set-up (e.g. copying data dirs).
	prepare() error
	// setup starts the program on the inputs; the caller times it.
	setup(ctx context.Context, traced bool, ops int) error
	op(ctx context.Context, i int) opResult
	// verify checks op i's output and fills its counters, off the clock.
	verify(i int, r *opResult) error
	// emdRatio is the accuracy metric, computed off the clock.
	emdRatio() (float64, error)
	// writeLatencies returns the last loop's primary write-ack latencies:
	// the writes inside the ops where writes are part of the op, off-clock
	// probes between ops otherwise.
	writeLatencies() []time.Duration
	// serverTraces returns the traces the program recorded itself
	// (server sessions, replication rounds) during a traced loop.
	serverTraces() []*trace.Snapshot
	// layers fills the workload's timed and counter per-layer metrics
	// after a traced loop of n ops.
	layers(m map[string]float64, n int) error
	teardown()
}

func newWorkload(cfg config) (bench, error) {
	switch cfg.workload {
	case "serve-robust":
		return newServeRobust(cfg.seed)
	case "exact-large":
		return newExactLarge(cfg.seed)
	case "replica-churn":
		return newReplicaChurn(cfg.seed, cfg.dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want serve-robust, exact-large or replica-churn)", cfg.workload)
}

// loopStats summarizes one timed loop.
type loopStats struct {
	n, failed  int
	errs       []string
	lat        []time.Duration // per op; failed ops are +inf
	took       []time.Duration // per op as measured, failed ops too
	cpu        []time.Duration // process CPU (both ends, GC) inside each op
	wire       int64
	wireVsMax  float64
	allocs     uint64
	allocBytes uint64
	gcShare    float64
	ops        []tracedOp // traced loops only
}

type tracedOp struct {
	start, end time.Time
	traces     []*trace.Snapshot
	spans      []span
}

const failedLatency = time.Duration(math.MaxInt64)

// setupReps is the number of timed set-ups in an end-to-end run;
// setup_s is their median.
const setupReps = 5

func runLoop(ctx context.Context, w bench, passes int, traced bool) *loopStats {
	n := passes * w.passLen()
	ls := &loopStats{
		n:    n,
		lat:  make([]time.Duration, 0, n),
		took: make([]time.Duration, 0, n),
		cpu:  make([]time.Duration, 0, n),
	}
	runtime.GC()
	rt0 := readRuntime()
	var pausedRT runtimeCounters
	for i := 0; i < n; i++ {
		c0 := cpuTime()
		t0 := time.Now()
		r := w.op(ctx, i)
		t1 := time.Now()
		c1 := cpuTime()

		// Off the clock from here to the next op.
		m0 := readRuntime()
		err := r.err
		if err == nil {
			err = w.verify(i, &r)
		}
		r.out = nil
		lat := t1.Sub(t0)
		if err != nil {
			ls.failed++
			if len(ls.errs) < 3 {
				ls.errs = append(ls.errs, fmt.Sprintf("op %d: %v", i, err))
			}
			lat = failedLatency
		} else {
			ls.wire += r.wire
			if r.naive > 0 {
				ls.wireVsMax = math.Max(ls.wireVsMax, float64(r.wire)/float64(r.naive))
			}
		}
		ls.lat = append(ls.lat, lat)
		ls.took = append(ls.took, t1.Sub(t0))
		ls.cpu = append(ls.cpu, c1-c0)
		if traced {
			ls.ops = append(ls.ops, tracedOp{start: t0, end: t1, traces: r.traces, spans: r.spans})
		}
		pausedRT.add(readRuntime().sub(m0))
	}
	// The runtime's CPU classes are settled at GC cycle ends, so the GC
	// share is taken over the whole loop; allocations exclude verification.
	rt := readRuntime().sub(rt0)
	if busy := rt.totalCPU - rt.idleCPU; busy > 0 {
		ls.gcShare = rt.gcCPU / busy
	}
	rt = rt.sub(pausedRT)
	ls.allocs, ls.allocBytes = rt.allocs, rt.allocBytes
	return ls
}

// opsPerSec is completed ops over the time all of the loop's ops took,
// failed ones included; off-clock verification is outside.
func (ls *loopStats) opsPerSec() float64 {
	var wall time.Duration
	for _, d := range ls.took {
		wall += d
	}
	if wall == 0 {
		return 0
	}
	return float64(ls.n-ls.failed) / wall.Seconds()
}

// cpuPerOp is the process CPU inside the ops' windows, per op.
func (ls *loopStats) cpuPerOp() time.Duration {
	var total time.Duration
	for _, d := range ls.cpu {
		total += d
	}
	return total / time.Duration(ls.n)
}

// timedSetup runs one set-up from a collected heap and times only the
// program's calls.
func timedSetup(ctx context.Context, w bench, traced bool, ops int) (time.Duration, error) {
	if err := w.prepare(); err != nil {
		return 0, fmt.Errorf("prepare: %w", err)
	}
	// Collect the heap and hand freed memory back to the OS, so each
	// set-up starts from the same state; then restart the peak RSS, so
	// after the last set-up it covers that set-up and the loop only.
	debug.FreeOSMemory()
	resetPeakRSS()
	t0 := time.Now()
	err := w.setup(ctx, traced, ops)
	d := time.Since(t0)
	if err != nil {
		w.teardown()
		return 0, fmt.Errorf("setup: %w", err)
	}
	return d, nil
}

func run(cfg config) (*report, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	passes := w.passes(cfg.seconds)
	n := passes * w.passLen()
	if cfg.trace {
		return runTraced(ctx, w, passes)
	}
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			w.teardown()
		}
		d, err := timedSetup(ctx, w, false, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	ls := runLoop(ctx, w, passes, false)
	rss := peakRSSMiB()
	writes := w.writeLatencies()
	w.teardown()
	emdRatio, err := w.emdRatio()
	if err != nil {
		return nil, fmt.Errorf("emd: %w", err)
	}
	ok := n - ls.failed
	rep := newReport(ls)
	pct := tailPercentile(n)
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("op_p50_ms", "ms", ms(quantileDur(ls.lat, 0.5)))
	put("op_tail_ms", "ms", ms(nearestRank(ls.lat, pct)))
	put("ops_per_s", "1/s", ls.opsPerSec())
	put("cpu_ms_per_op", "ms", ms(ls.cpuPerOp()))
	put("wire_bytes_per_op", "B", perOp(float64(ls.wire), ok))
	put("wire_vs_naive_max", "ratio", ls.wireVsMax)
	put("emd_ratio", "ratio", emdRatio)
	put("write_p50_ms", "ms", ms(quantileDur(writes, 0.5)))
	put("peak_rss_mb", "MiB", rss)
	fmt.Fprintf(os.Stderr, "perfbench: %d ops, tail percentile p%s, set-ups %.3f s, write p10/p50/p90 %v/%v/%v\n",
		n, strconv.FormatFloat(pct, 'f', -1, 64), setups,
		quantileDur(writes, 0.1), quantileDur(writes, 0.5), quantileDur(writes, 0.9))
	return rep, nil
}

// newReport counts the ops of every loop the run made.
func newReport(loops ...*loopStats) *report {
	rep := &report{Metrics: make(map[string]metric)}
	for _, ls := range loops {
		for _, e := range ls.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed", e)
		}
		rep.Attempted += ls.n
		rep.Failed += ls.failed
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// runTraced measures the per-layer breakdown: an untraced loop (the
// overhead baseline and the runtime counters), then the same loop with
// client and server tracing on, whose spans are folded per op.
func runTraced(ctx context.Context, w bench, passes int) (*report, error) {
	n := passes * w.passLen()
	if _, err := timedSetup(ctx, w, false, n); err != nil {
		return nil, err
	}
	base := runLoop(ctx, w, passes, false)
	w.teardown()
	if _, err := timedSetup(ctx, w, true, n); err != nil {
		return nil, err
	}
	tl := runLoop(ctx, w, passes, true)
	f := foldOps(tl.ops, w.serverTraces())
	m := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = 0
	}
	f.fill(m, n)
	m["runtime.allocs_per_op"] = perOp(float64(base.allocs), n)
	m["runtime.alloc_bytes_per_op"] = perOp(float64(base.allocBytes), n)
	m["runtime.gc_cpu_share"] = base.gcShare
	m["trace.overhead_ratio"] = tl.opsPerSec() / base.opsPerSec()
	rtt, err := frameRTT(ctx, f.medianFrame(), 400)
	if err == nil {
		m["transport.frame_rtt_us"] = us(rtt)
		err = w.layers(m, n)
	}
	w.teardown()
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	rep := newReport(base, tl)
	for _, lm := range layerMetrics {
		rep.Metrics[lm.name] = metric{Value: m[lm.name], Unit: lm.unit}
	}
	return rep, nil
}

// tailPercentile is the highest rung of a fixed ladder that leaves at
// least ten samples beyond it at n ops.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// nearestRank returns the p-th percentile by the nearest-rank rule.
func nearestRank(d []time.Duration, p float64) time.Duration {
	s := sortedDur(d)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// quantileDur is the interpolated q-quantile (the median for q=0.5).
func quantileDur(d []time.Duration, q float64) time.Duration {
	s := sortedDur(d)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) || s[lo+1] == failedLatency {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func sortedDur(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func() error) (time.Duration, error) {
	d := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t0))
	}
	return quantileDur(d, 0.5), nil
}

func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+sys CPU time (both ends of every
// connection live in this process).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) at its
// current size. Where the kernel refuses, the peak keeps covering the
// whole process, which stderr notes.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

type runtimeCounters struct {
	allocs, allocBytes       uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		idleCPU:    s[4].Value.Float64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:     a.allocs - b.allocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		idleCPU:    a.idleCPU - b.idleCPU,
	}
}

func (a *runtimeCounters) add(b runtimeCounters) {
	a.allocs += b.allocs
	a.allocBytes += b.allocBytes
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
	a.idleCPU += b.idleCPU
}
