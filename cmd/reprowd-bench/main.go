// Command reprowd-bench runs the reproduction's experiment suite (E1–E17;
// the index, what each one gates and the file it writes are in
// docs/ARCHITECTURE.md § "Experiments and gates") and prints each
// experiment's table. Experiments with machine-readable output (E11 →
// BENCH_submit.json, E12 → BENCH_recovery.json, E13 → BENCH_repl.json,
// E14 → BENCH_gate.json, E15 → BENCH_obs.json, E16 → BENCH_codec.json,
// E17 → BENCH_dist.json) write it to -out.
//
// The command doubles as the CI gate: every experiment checks its own
// claims on its own measurements and notes a violation as "FAIL: ...";
// -check exits non-zero when any selected experiment did. The checks are
// structural (counts, bytes, booleans) or same-process ratios, immune to
// machine speed. Absolute submit throughput is not gated here — the
// repo benchmark (BENCHMARK.json, parent vs change on one box) does that.
//
// Usage:
//
//	reprowd-bench                 # run everything at full scale
//	reprowd-bench -exp e4,e5      # selected experiments
//	reprowd-bench -quick          # small workloads (seconds, not minutes)
//	reprowd-bench -seed 7         # change the simulation seed
//	reprowd-bench -quick -exp e11,e12,e13,e14,e15,e16,e17 -out bench-out -check
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids (e1..e17) or 'all'")
		seed    = flag.Int64("seed", 20160903, "simulation seed")
		quick   = flag.Bool("quick", false, "run reduced workloads")
		outDir  = flag.String("out", ".", "directory for machine-readable results (BENCH_*.json)")
		check   = flag.Bool("check", false,
			"exit non-zero if any selected experiment reports a failed gate (a FAIL note)")
	)
	flag.Parse()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "reprowd-bench: create -out dir: %v\n", err)
			os.Exit(2)
		}
	}
	cfg := exp.Config{Seed: *seed, Quick: *quick, OutDir: *outDir}

	var ids []string
	if *expFlag == "all" {
		ids = exp.IDs()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "reprowd-bench: no experiments selected")
		os.Exit(2)
	}

	failed := false
	for _, id := range ids {
		res, err := exp.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reprowd-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(res.Format())
		if *check {
			for _, note := range res.Notes {
				if strings.HasPrefix(note, "FAIL") {
					fmt.Fprintf(os.Stderr, "reprowd-bench: %s: gate failed: %s\n", id, note)
					failed = true
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
