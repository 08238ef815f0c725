package main

import (
	"testing"
	"time"
)

// short runs one workload at the smallest size.
func short(t *testing.T, workload string, seed uint64, traced bool) map[string]float64 {
	t.Helper()
	rep, err := run(config{
		workload: workload,
		seed:     seed,
		seconds:  1,
		trace:    traced,
		dir:      t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, traced, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d ops failed", workload, seed, traced, rep.Failed, rep.Attempted)
	}
	out := make(map[string]float64, len(rep.Metrics))
	for k, m := range rep.Metrics {
		out[k] = m.Value
	}
	return out
}

// Counts the benchmark reports must repeat exactly for a fixed seed.
var (
	endToEndCounts = []string{"wire_bytes_per_op", "wire_vs_naive_max", "emd_ratio"}
	layerCounts    = []string{
		"transport.msgs_per_op",
		"core.chosen_level",
		"core.levels_tried_per_op",
		"sketch.estimate_ratio",
		"iblt.rounds_per_op",
		"iblt.decode_retries_per_op",
		"ranges.rounds_per_op",
		"ranges.wall_rounds_per_op",
		"store.wal_bytes_per_op",
		"store.fsyncs_per_op",
		"store.replay_records",
		"cluster.sessions_per_round",
	}
)

func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range []string{"serve-robust", "exact-large", "replica-churn"} {
		t.Run(w, func(t *testing.T) {
			a, b := short(t, w, 1, false), short(t, w, 1, false)
			for _, k := range endToEndCounts {
				if a[k] != b[k] {
					t.Errorf("%s: %v then %v with the same seed", k, a[k], b[k])
				}
			}
			// The one-shot robust sketch has a fixed size, so serve-robust's
			// inputs show through its accuracy instead of its wire bytes.
			seedDependent := "wire_bytes_per_op"
			if w == "serve-robust" {
				seedDependent = "emd_ratio"
			}
			if c := short(t, w, 2, false); c[seedDependent] == a[seedDependent] {
				t.Errorf("%s is %v for seeds 1 and 2; inputs must depend on the seed", seedDependent, a[seedDependent])
			}
			la, lb := short(t, w, 1, true), short(t, w, 1, true)
			for _, k := range layerCounts {
				if la[k] != lb[k] {
					t.Errorf("%s: %v then %v with the same seed", k, la[k], lb[k])
				}
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{8, 50}, {80, 75}, {84, 75}, {100, 90}, {4032, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestCovered(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{"b", at(5), at(8)},
		{"a", at(1), at(4)},
		{"c", at(3), at(6)},  // overlaps both
		{"d", at(9), at(20)}, // clipped at the op's end
	}
	if got, want := covered(spans, at(0), at(10)), 8*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}
