// Package exp is the experiment harness: one function per experiment
// (E1–E10, each regenerating a figure, table, or claim of the paper),
// returning a printable result table. docs/ARCHITECTURE.md §
// "Experiments and gates" is the index. Platform performance is not
// measured here: BENCHMARK.json + benchmark/ (E18) is the one benchmark.
package exp

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Config tunes experiment scale.
type Config struct {
	// Seed drives all simulation randomness.
	Seed int64
	// Quick shrinks workloads for use inside unit tests and smoke runs.
	Quick bool
}

// Result is one experiment's output table.
type Result struct {
	// ID is the experiment id (e.g. "E4").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Headers are the column names.
	Headers []string
	// Rows are the table body.
	Rows [][]string
	// Notes carry free-form observations (the claim-vs-measured text).
	Notes []string
}

// Format renders the result as an aligned text table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// runner is the type of every experiment entry point.
type runner func(cfg Config) (Result, error)

// registry maps experiment ids to their runners, lowercase keys.
var registry = map[string]runner{
	"e1":  E1Quickstart,
	"e2":  E2ExtendLineage,
	"e3":  E3CrashRerun,
	"e4":  E4CrowdERSweep,
	"e5":  E5TransitiveJoin,
	"e6":  E6QualitySweep,
	"e7":  E7Storage,
	"e8":  E8PlatformBindings,
	"e9":  E9SortMax,
	"e10": E10Turkit,
}

// IDs lists the registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// e1 < e2 < ... < e10 numerically.
		var a, b int
		fmt.Sscanf(out[i], "e%d", &a)
		fmt.Sscanf(out[j], "e%d", &b)
		return a < b
	})
	return out
}

// Run executes one experiment by id (case-insensitive).
func Run(id string, cfg Config) (Result, error) {
	fn, ok := registry[strings.ToLower(id)]
	if !ok {
		return Result{}, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return fn(cfg)
}

// All executes every experiment in order, stopping at the first error.
func All(cfg Config) ([]Result, error) {
	var out []Result
	for _, id := range IDs() {
		r, err := Run(id, cfg)
		if err != nil {
			return out, fmt.Errorf("exp %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// --- shared environment plumbing ---

// env is the standard simulation environment most experiments use.
type env struct {
	clock  *vclock.Virtual
	engine *platform.Engine
	cc     *core.CrowdContext
	dir    string
}

// newEnv builds a fresh environment with a temp database directory. The
// caller must defer e.close().
func newEnv() (*env, error) {
	dir, err := os.MkdirTemp("", "reprowd-exp-*")
	if err != nil {
		return nil, err
	}
	clock := vclock.NewVirtual()
	engine := platform.NewEngine(clock)
	cc, err := core.NewContext(core.Options{
		DBDir:   dir,
		Client:  engine,
		Clock:   clock,
		Storage: storage.Options{Sync: storage.SyncNever},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &env{clock: clock, engine: engine, cc: cc, dir: dir}, nil
}

func (e *env) close() {
	if e.cc != nil {
		e.cc.Close()
	}
	os.RemoveAll(e.dir)
}

// labelOracle answers image-label tasks whose object carries the truth.
var labelOracle = crowd.FuncOracle{
	TruthFunc:   func(p map[string]string) string { return p["truth"] },
	OptionsFunc: func(map[string]string) []string { return []string{"Yes", "No"} },
}

func itoa(n int) string      { return fmt.Sprintf("%d", n) }
func ftoa(f float64) string  { return fmt.Sprintf("%.3f", f) }
func f1toa(f float64) string { return fmt.Sprintf("%.1f", f) }
