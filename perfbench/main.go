// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads over loopback TCP, each a closed loop with one
// operation in flight on one client connection:
//
//	serve-robust   robust one-shot fetches rotating over 64 small datasets
//	exact-large    ExactIBLT, Ranged and CPI fetches of one 200k-point dataset
//	replica-churn  primary writes plus one durable mirror round per op
//
// Inputs come from --seed; --seconds sizes the operation count. Every
// operation is verified off the clock. The last line of standard output
// is one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics from a traced run with --trace 1. README.md defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "serve-robust, exact-large or replica-churn")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "nominal run length; sizes the operation count")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch state (data dirs)")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		dir:      filepath.Clean(dir),
	})
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
