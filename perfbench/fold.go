package main

import (
	"sort"
	"time"

	"robustset/internal/trace"
)

// span is one phase interval on the process's monotonic clock.
type span struct {
	name       string
	start, end time.Time
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric a traced run reports, for every
// workload; a layer the workload does not run reports 0.
var layerMetrics = []layerMetric{
	{"transport.msgs_per_op", "count"},
	{"transport.frame_rtt_us", "us"},
	{"server.hello_ms", "ms"},
	{"server.dial_ms", "ms"},
	{"core.sketch_build_ms", "ms"},
	{"core.sketch_recv_ms", "ms"},
	{"core.repair_ms", "ms"},
	{"core.reconcile_ms", "ms"},
	{"core.chosen_level", "level"},
	{"core.levels_tried_per_op", "count"},
	{"sketch.strata_ms", "ms"},
	{"sketch.estimate_ratio", "ratio"},
	{"iblt.round_ms", "ms"},
	{"iblt.rounds_per_op", "count"},
	{"iblt.decode_retries_per_op", "count"},
	{"iblt.decode_us", "us"},
	{"ranges.tree_build_ms", "ms"},
	{"ranges.round_ms", "ms"},
	{"ranges.rounds_per_op", "count"},
	{"ranges.wall_rounds_per_op", "count"},
	{"ranges.bulk_build_ms", "ms"},
	{"cpi.sketch_ms", "ms"},
	{"cpi.decode_ms", "ms"},
	{"protocol.apply_ms", "ms"},
	{"store.write_us", "us"},
	{"store.wal_bytes_per_op", "B"},
	{"store.fsyncs_per_op", "count"},
	{"store.recover_ms", "ms"},
	{"store.replay_records", "count"},
	{"cluster.round_ms", "ms"},
	{"cluster.sessions_per_round", "count"},
	{"cluster.snapshot_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// phaseMetric maps a program span name to the per-layer metric that
// reports its time per op, summed over both ends of the connection.
var phaseMetric = map[string]string{
	"hello":            "server.hello_ms",
	"sketch_recv":      "core.sketch_recv_ms",
	"repair":           "core.repair_ms",
	"strata":           "sketch.strata_ms",
	"iblt_round":       "iblt.round_ms",
	"range_tree_build": "ranges.tree_build_ms",
	"range_round":      "ranges.round_ms",
	"cpi_sketch":       "cpi.sketch_ms",
	"apply":            "protocol.apply_ms",
}

// folded is a traced loop reduced to per-phase time and per-strategy
// client stats.
type folded struct {
	phase       map[string]time.Duration // span name → total time, both ends
	latency     time.Duration            // Σ op latency
	uncovered   time.Duration            // Σ op latency no span covers
	stats       map[string]int64         // "strategy/stat" → total, client side
	msgs        int64                    // client-side messages, both directions
	frameCounts map[int64]int64          // mean frame size of a (type, dir) → messages
}

// foldOps attributes every program-recorded trace to the op whose
// interval contains its start (one op is in flight at a time), then
// folds each op's spans: per-phase time, and the share of the op's
// latency that no span covers.
func foldOps(ops []tracedOp, program []*trace.Snapshot) *folded {
	sort.Slice(program, func(i, j int) bool { return program[i].Start.Before(program[j].Start) })
	f := &folded{
		phase:       make(map[string]time.Duration),
		stats:       make(map[string]int64),
		frameCounts: make(map[int64]int64),
	}
	next := 0
	for _, op := range ops {
		spans := append([]span(nil), op.spans...)
		for _, s := range op.traces {
			f.addTrace(s, &spans)
		}
		for next < len(program) && program[next].Start.Before(op.start) {
			next++ // recorded outside any op (set-up)
		}
		for next < len(program) && program[next].Start.Before(op.end) {
			f.addTrace(program[next], &spans)
			next++
		}
		f.latency += op.end.Sub(op.start)
		f.uncovered += op.end.Sub(op.start) - covered(spans, op.start, op.end)
		for _, s := range spans {
			f.phase[s.name] += s.end.Sub(s.start)
		}
	}
	return f
}

// addTrace collects a trace tree's spans, and for client-side traces
// its stats and frame counts.
func (f *folded) addTrace(s *trace.Snapshot, spans *[]span) {
	for _, sp := range s.Spans {
		start := s.Start.Add(time.Duration(sp.StartNS))
		*spans = append(*spans, span{name: sp.Name, start: start, end: start.Add(time.Duration(sp.DurNS))})
	}
	if s.Role != "server" && s.Strategy != "" {
		for _, kv := range s.Stats {
			f.stats[s.Strategy+"/"+kv.K] += kv.V
		}
		for _, fr := range s.Frames {
			f.msgs += fr.Msgs
			if fr.Msgs > 0 {
				f.frameCounts[fr.Bytes/fr.Msgs] += fr.Msgs
			}
		}
	}
	for _, c := range s.Children {
		f.addTrace(c, spans)
	}
}

// covered is the length of the union of spans clipped to [lo, hi].
func covered(spans []span, lo, hi time.Time) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	cur := lo
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(cur) {
			a = cur
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

// medianFrame is the message-weighted median of the client's mean frame
// size per (type, direction).
func (f *folded) medianFrame() int {
	sizes := make([]int64, 0, len(f.frameCounts))
	var total int64
	for size, n := range f.frameCounts {
		sizes = append(sizes, size)
		total += n
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	var seen int64
	for _, size := range sizes {
		seen += f.frameCounts[size]
		if 2*seen >= total {
			return int(size)
		}
	}
	return 64
}

// fill writes the span- and stat-derived per-layer metrics.
func (f *folded) fill(m map[string]float64, n int) {
	for phase, name := range phaseMetric {
		m[name] = ms(f.phase[phase]) / float64(n)
	}
	m["transport.msgs_per_op"] = perOp(float64(f.msgs), n)
	if f.latency > 0 {
		m["trace.unattributed_share"] = float64(f.uncovered) / float64(f.latency)
	}
	const exact, ranged = "exact-iblt", "ranged"
	m["iblt.rounds_per_op"] = perOp(float64(f.stats[exact+"/rounds"]), n)
	m["iblt.decode_retries_per_op"] = perOp(float64(f.stats[exact+"/decode_retries"]), n)
	if actual := f.stats[exact+"/actual_diff"]; actual > 0 {
		m["sketch.estimate_ratio"] = float64(f.stats[exact+"/estimated_diff"]) / float64(actual)
	}
	m["ranges.rounds_per_op"] = perOp(float64(f.stats[ranged+"/rounds"]), n)
	m["ranges.wall_rounds_per_op"] = perOp(float64(f.stats[ranged+"/wall_rounds"]), n)
}
