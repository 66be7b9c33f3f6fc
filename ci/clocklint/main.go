// Command clocklint enforces the determinism contract (docs/TESTING.md):
// the five platform packages — internal/platform, internal/sched,
// internal/repl, internal/gate, internal/storage — and four operator
// packages — internal/core, internal/distops, internal/quality,
// internal/lineage — must not read the wall clock or ambient randomness
// directly. State-bearing time flows through an injected vclock.Clock
// and randomness through a vclock.Rand, so the simulation harness
// (internal/sim) can run a whole cluster in virtual time and replay it
// from a seed. Metric-only time goes through internal/obs (Now/Since),
// which is deliberately not banned: observed durations never feed back
// into control flow or persisted state.
//
// The check is syntactic (stdlib go/parser, no build step): it flags
//
//   - calls to the time package's clock functions (Now, Sleep, Since,
//     Until, After, AfterFunc, Tick, NewTimer, NewTicker) — time.Time and
//     time.Duration values, constructors like time.Date, and parsing are
//     all fine, because they read no clock;
//   - any import of math/rand or math/rand/v2;
//   - a dot-import of time (it would hide the calls from this tool).
//
// _test.go files are exempt: tests own their harnesses. Genuine
// exceptions go in ci/clocklint/allow.txt, one "path selector" pair per
// line, with a comment saying why — not in code that quietly dodges the
// pattern.
//
// Usage (CI lint job):
//
//	go run ./ci/clocklint
//	go run ./ci/clocklint internal/extra ...   # override the root list
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultRoots are the packages under the determinism contract.
var defaultRoots = []string{
	"internal/platform",
	"internal/sched",
	"internal/repl",
	"internal/gate",
	"internal/storage",
	"internal/core",
	"internal/distops",
	"internal/quality",
	"internal/lineage",
}

// bannedClockFuncs are the time-package functions that read or wait on
// the process clock.
var bannedClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

const allowFile = "ci/clocklint/allow.txt"

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = defaultRoots
	}
	allow, err := loadAllowlist(allowFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clocklint: %v\n", err)
		os.Exit(2)
	}
	var problems []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == ".git" || name == "testdata" || name == "vendor" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			found, err := lintFile(path, allow)
			if err != nil {
				return err
			}
			problems = append(problems, found...)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "clocklint: %v\n", err)
			os.Exit(2)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "clocklint: %d violation(s); inject vclock.Clock / vclock.Rand (or obs.Now for metric-only time), or add an allow.txt entry with a reason\n", len(problems))
		os.Exit(1)
	}
}

// loadAllowlist reads allow.txt: one "path selector" pair per line
// (e.g. "internal/gate/gate.go time.Now"); '#' starts a comment. A
// missing file means an empty allowlist.
func loadAllowlist(path string) (map[string]bool, error) {
	allow := make(map[string]bool)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return allow, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q (want \"path selector\")", path, sc.Text())
		}
		allow[fields[0]+" "+fields[1]] = true
	}
	return allow, sc.Err()
}

func lintFile(path string, allow map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, selector, msg string) {
		if allow[filepath.ToSlash(path)+" "+selector] {
			return
		}
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d:%d: %s", p.Filename, p.Line, p.Column, msg))
	}

	// Pass 1: imports. Find the local name of "time" and flag randomness.
	timeName := ""
	for _, imp := range file.Imports {
		ipath, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		switch ipath {
		case "time":
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
				if timeName == "." {
					report(imp.Pos(), "import-dot-time",
						"dot-import of time hides clock calls from clocklint; import it qualified")
					timeName = ""
				}
			}
		case "math/rand", "math/rand/v2":
			report(imp.Pos(), "import-math-rand",
				fmt.Sprintf("import of %s: draw randomness from an injected vclock.Rand so scenarios replay from a seed", ipath))
		}
	}
	if timeName == "" || timeName == "_" {
		return problems, nil
	}

	// Pass 2: calls to the time package's clock functions.
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != timeName || !bannedClockFuncs[sel.Sel.Name] {
			return true
		}
		report(call.Pos(), "time."+sel.Sel.Name,
			fmt.Sprintf("time.%s reads the process clock: take a vclock.Clock (state/control-flow time) or use obs.Now/obs.Since (metric-only time)", sel.Sel.Name))
		return true
	})
	return problems, nil
}
