package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCitations pins the citation rules on a small tree: a citation must
// name exactly one .go file, stay inside it, and land on the line that
// holds the name cited after it.
func TestCitations(t *testing.T) {
	root := t.TempDir()
	write := func(path, body string) {
		t.Helper()
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a/proxy.go", "package a\n\nfunc (g *Gateway) Forward() {}\n")
	write("a/snap.go", "package a\n")
	write("b/snap.go", "package b\n")
	write("docs/X.md", strings.Join([]string{
		"ok: `proxy.go:3` `Gateway.Forward`, `a/snap.go:1`, `proxy.go:1`",
		"ambiguous: `snap.go:1`",
		"missing: `nope.go:1`",
		"past end: `proxy.go:4`",
		"wrong line: `proxy.go:2` `Forward`",
	}, "\n"))
	// History documents are not checked.
	write("CHANGES.md", "`nope.go:9`\n")

	broken, cites, err := checkCitations(root)
	if err != nil {
		t.Fatal(err)
	}
	if cites != 7 {
		t.Fatalf("checked %d citations, want 7", cites)
	}
	want := []string{"X.md:2: `snap.go:1` is ambiguous", "X.md:3: `nope.go:1` names no", "X.md:4: `proxy.go:4` is past the end", "X.md:5: `proxy.go:2` `Forward`: line 2"}
	if len(broken) != len(want) {
		t.Fatalf("broken = %q, want %d entries", broken, len(want))
	}
	for i, w := range want {
		if !strings.Contains(broken[i], w) {
			t.Errorf("broken[%d] = %q, want it to contain %q", i, broken[i], w)
		}
	}
}
