// Command reprowd-bench runs the reproduction's experiment suite (E1–E10,
// the paper's figures and the TurKit baseline; the index is in
// docs/ARCHITECTURE.md § "Experiments and gates") and prints each
// experiment's table. An experiment that finds one of its own claims
// violated notes it as "FAIL: ..."; any such note exits non-zero.
//
// Platform performance is not measured here: BENCHMARK.json +
// benchmark/ (E18, `bash benchmark/run.sh`) is the repo's one benchmark.
//
// Usage:
//
//	reprowd-bench                 # run everything at full scale
//	reprowd-bench -exp e4,e5      # selected experiments
//	reprowd-bench -quick          # small workloads (seconds, not minutes)
//	reprowd-bench -seed 7         # change the simulation seed
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
		expFlag = flag.String("exp", "all", "comma-separated experiment ids (e1..e10) or 'all'")
		seed    = flag.Int64("seed", 20160903, "simulation seed")
		quick   = flag.Bool("quick", false, "run reduced workloads")
	)
	flag.Parse()
	cfg := exp.Config{Seed: *seed, Quick: *quick}

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
		for _, note := range res.Notes {
			if strings.HasPrefix(note, "FAIL") {
				fmt.Fprintf(os.Stderr, "reprowd-bench: %s: claim violated: %s\n", id, note)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
