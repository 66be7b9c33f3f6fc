// Command linkcheck is the docs CI gate: it walks a repository tree,
// extracts every inline Markdown link and image from *.md files, and
// fails (exit 1) if a relative link points at a file that does not
// exist. External links (http/https/mailto) and pure anchors (#...) are
// skipped — this is an intra-repo integrity check, not a crawler — and
// anchors on relative links are stripped before the existence check.
//
// It also checks every Go source citation — a backticked `file.go:N`,
// optionally followed by a backticked `Name` — in README.md and
// docs/*.md. A citation fails when its file name does not resolve to
// exactly one .go path in the tree (by path suffix), when N is past the
// end of that file, or when a following `Name` is not on line N (for a
// dotted `Type.Method`, each part must be). CHANGES.md and ROADMAP.md
// record history and are not checked.
//
// Standard library only, so CI can `go run ./ci/linkcheck .` with no
// extra dependencies.
//
// Usage:
//
//	go run ./ci/linkcheck [dir]   # default "."
package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// linkRE matches inline Markdown links and images: [text](target) /
// ![alt](target), with an optional "title". Reference-style definitions
// ([ref]: target) are matched by refRE. Known limitation: targets
// containing spaces or parentheses do not match and are skipped, not
// checked — keep doc filenames free of both.
var (
	linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)(?:\s+"[^"]*")?\)`)
	refRE  = regexp.MustCompile(`(?m)^\s*\[[^\]]+\]:\s+(\S+)`)
	// citeRE matches a source citation and the name that may follow it:
	// `journal.go:437` `Enqueue`.
	citeRE = regexp.MustCompile("`([\\w./-]+\\.go):(\\d+)`(?:\\s+`([A-Za-z_][\\w.]*)`)?")
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken, files, links, err := check(root)
	var cites int
	if err == nil {
		var bad []string
		bad, cites, err = checkCitations(root)
		broken = append(broken, bad...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
		os.Exit(2)
	}
	for _, b := range broken {
		fmt.Fprintf(os.Stderr, "linkcheck: %s\n", b)
	}
	if len(broken) > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken link(s) or citation(s) across %d markdown files\n", len(broken), files)
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d files, %d intra-repo links, %d code citations, all resolve\n", files, links, cites)
}

// check walks root and returns a description of every broken relative
// link, plus counts for the summary line.
func check(root string) (broken []string, files, links int, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and dependency trees; everything else is
			// fair game (docs/, ci/, the repo root).
			switch d.Name() {
			case ".git", "node_modules", "vendor":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.EqualFold(filepath.Ext(path), ".md") {
			return nil
		}
		files++
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, target := range targets(string(buf)) {
			if skipTarget(target) {
				continue
			}
			links++
			if msg := resolve(root, path, target); msg != "" {
				broken = append(broken, msg)
			}
		}
		return nil
	})
	return broken, files, links, err
}

// targets extracts every link target in a Markdown document.
func targets(doc string) []string {
	var out []string
	for _, m := range linkRE.FindAllStringSubmatch(doc, -1) {
		out = append(out, m[1])
	}
	for _, m := range refRE.FindAllStringSubmatch(doc, -1) {
		out = append(out, m[1])
	}
	return out
}

// skipTarget reports whether a link target is outside this check's
// scope: absolute URLs, mail links, and in-page anchors.
func skipTarget(t string) bool {
	return strings.Contains(t, "://") ||
		strings.HasPrefix(t, "mailto:") ||
		strings.HasPrefix(t, "#")
}

// resolve checks one relative target against the filesystem, returning a
// human-readable failure ("" = fine). Anchors are stripped: linking into
// a section of an existing file is fine; linking into a missing file is
// not. A root-absolute target ("/README.md") resolves against the scan
// root, matching how GitHub renders it, not against the linking file's
// directory.
func resolve(root, fromFile, target string) string {
	clean := target
	if i := strings.IndexByte(clean, '#'); i >= 0 {
		clean = clean[:i]
	}
	if clean == "" {
		return ""
	}
	base := filepath.Dir(fromFile)
	if strings.HasPrefix(clean, "/") {
		base = root
	}
	full := filepath.Join(base, filepath.FromSlash(clean))
	if _, err := os.Stat(full); err != nil {
		return fmt.Sprintf("%s: link %q → %s does not exist", fromFile, target, full)
	}
	return ""
}

// checkCitations checks every `file.go:N` citation in README.md and
// docs/*.md under root, returning a description of each failing one and
// the number checked.
func checkCitations(root string) (broken []string, cites int, err error) {
	goFiles, err := sourceFiles(root)
	if err != nil {
		return nil, 0, err
	}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, 0, err
	}
	docs = append([]string{filepath.Join(root, "README.md")}, docs...)
	for _, doc := range docs {
		buf, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		for _, m := range citeRE.FindAllSubmatchIndex(buf, -1) {
			cites++
			file := string(buf[m[2]:m[3]])
			n, _ := strconv.Atoi(string(buf[m[4]:m[5]]))
			name := ""
			if m[6] >= 0 {
				name = string(buf[m[6]:m[7]])
			}
			if msg := checkCite(root, goFiles, file, n, name); msg != "" {
				line := 1 + bytes.Count(buf[:m[0]], []byte("\n"))
				broken = append(broken, fmt.Sprintf("%s:%d: %s", doc, line, msg))
			}
		}
	}
	return broken, cites, nil
}

// sourceFiles lists every .go file under root as a slash path relative
// to root, skipping hidden directories (VCS internals, build caches).
func sourceFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "node_modules" || d.Name() == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}

// checkCite checks one citation of line n of file, followed by name
// when name is not empty, returning a failure ("" = fine).
func checkCite(root string, goFiles []string, file string, n int, name string) string {
	cite := fmt.Sprintf("`%s:%d`", file, n)
	var hits []string
	for _, p := range goFiles {
		if p == file || strings.HasSuffix(p, "/"+file) {
			hits = append(hits, p)
		}
	}
	switch len(hits) {
	case 0:
		return cite + " names no .go file in the repo"
	case 1:
	default:
		return fmt.Sprintf("%s is ambiguous: %s", cite, strings.Join(hits, ", "))
	}
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(hits[0])))
	if err != nil {
		return fmt.Sprintf("%s: %v", cite, err)
	}
	lines := strings.Split(strings.TrimSuffix(string(src), "\n"), "\n")
	if n < 1 || n > len(lines) {
		return fmt.Sprintf("%s is past the end of %s (%d lines)", cite, hits[0], len(lines))
	}
	if name == "" {
		return ""
	}
	for _, part := range strings.Split(name, ".") {
		if !strings.Contains(lines[n-1], part) {
			return fmt.Sprintf("%s `%s`: line %d of %s does not contain %q", cite, name, n, hits[0], part)
		}
	}
	return ""
}
