package exp

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs the full experiment suite at Quick
// scale and sanity-checks each table. This is the repository's end-to-end
// test: every substrate, the core, the operators, and the baselines run
// together here.
func TestAllExperimentsQuick(t *testing.T) {
	results, err := All(Config{Seed: 20160903, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("got %d results, want %d", len(results), len(IDs()))
	}
	for _, r := range results {
		if r.ID == "" || r.Title == "" || len(r.Headers) == 0 || len(r.Rows) == 0 {
			t.Fatalf("experiment %q returned an empty table: %+v", r.ID, r)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Headers) {
				t.Fatalf("%s: row width %d != header width %d: %v", r.ID, len(row), len(r.Headers), row)
			}
		}
		text := r.Format()
		if !strings.Contains(text, r.ID) || !strings.Contains(text, r.Headers[0]) {
			t.Fatalf("%s: Format missing content:\n%s", r.ID, text)
		}
		// The harness marks claim violations with "FAIL" notes.
		for _, note := range r.Notes {
			if strings.Contains(note, "FAIL") {
				t.Errorf("%s: claim violated: %s", r.ID, note)
			}
		}
		// Correctness columns must not report silent failures for
		// reprowd rows.
		if r.ID == "E10" {
			for _, row := range r.Rows {
				if row[0] == "reprowd" && row[3] != "yes" {
					t.Errorf("E10: reprowd row incorrect: %v", row)
				}
				if row[0] == "turkit-strict" && row[3] != "yes" {
					t.Errorf("E10: strict mode must stay correct: %v", row)
				}
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("e99", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 || ids[0] != "e1" || ids[9] != "e10" {
		t.Fatalf("IDs = %v", ids)
	}
}

// TestE10Shape pins the headline ablation: on a swap edit, turkit-naive is
// cheap but wrong, turkit-strict is correct but expensive, reprowd is
// correct and free.
func TestE10Shape(t *testing.T) {
	r, err := Run("e10", Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	row := func(system, edit string) []string {
		for _, rw := range r.Rows {
			if rw[0] == system && strings.Contains(rw[1], edit) {
				return rw
			}
		}
		t.Fatalf("row %s/%s missing", system, edit)
		return nil
	}
	if got := row("turkit-naive", "swap"); got[2] != "0" || got[3] == "yes" {
		t.Fatalf("naive swap: %v", got)
	}
	if got := row("turkit-strict", "swap"); got[2] == "0" {
		t.Fatalf("strict swap should re-ask: %v", got)
	}
	if got := row("reprowd", "swap"); got[2] != "0" || got[3] != "yes" {
		t.Fatalf("reprowd swap: %v", got)
	}
	if got := row("reprowd", "rerun"); got[2] != "0" {
		t.Fatalf("reprowd rerun: %v", got)
	}
}
