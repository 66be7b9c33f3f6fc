package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// specNames lists the entries' names, failing on a unit the program would
// not print for that name.
func specNames(t *testing.T, entries []specMetric) []string {
	t.Helper()
	var out []string
	for _, e := range entries {
		out = append(out, e.Name)
		if e.Unit != unitOf(e.Name) {
			t.Errorf("BENCHMARK.json gives %s the unit %q, the program prints %q", e.Name, e.Unit, unitOf(e.Name))
		}
	}
	return out
}

func smokeConfig(dir string, traced bool) config {
	return config{seed: 20160903, seconds: 10, short: true, traced: traced, dataDir: dir, outDir: dir}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// holds the output to BENCHMARK.json: every name emitted, well-formed and
// finite, every output check passing, and — on join_gated — the counts
// that must be exact repeating exactly across two traced runs of one seed.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if got := specNames(t, spec.EndToEnd); !slices.Equal(got, e2eNames) {
		t.Fatalf("BENCHMARK.json end_to_end = %v, the program reports %v", got, e2eNames)
	}
	if got := specNames(t, spec.PerLayer); !slices.Equal(got, layerNames) {
		t.Fatalf("BENCHMARK.json per_layer = %v, the program reports %v", got, layerNames)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range append(append([]string(nil), e2eNames...), layerNames...) {
		if !wellFormed.MatchString(name) {
			t.Errorf("metric name %q is not well-formed", name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}

	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program's is %q", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			plain, err := runOnce(w, smokeConfig(dir, false), 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "untraced", plain, e2eNames, true)

			traced, err := runOnce(w, smokeConfig(dir, true), plain.wall, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "traced", traced, layerNames, false)
			if w.name == "join_gated" {
				// One sequential crowd drain per leader, so even the fsync
				// count is a function of the seed alone.
				again, err := runOnce(w, smokeConfig(dir, true), plain.wall, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"client.submit_n", "client.add_tasks_n", "distops.streamed_n", "storage.fsyncs_n"} {
					if a, b := traced.metrics[name], again.metrics[name]; a != b || a == 0 {
						t.Errorf("%s = %v, then %v on the same seed", name, a, b)
					}
				}
			}
			if traced.metrics["trace.spans_n"] == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func check(t *testing.T, kind string, out outcome, names []string, positive bool) {
	t.Helper()
	for _, f := range out.failures {
		t.Errorf("%s: output check failed: %s", kind, f)
	}
	if out.attempted < 1 || out.failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", kind, out.attempted, out.failed)
	}
	for _, name := range names {
		v, ok := out.metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: %s not reported", kind, name)
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			t.Errorf("%s: %s = %v", kind, name, v)
		case positive && v == 0:
			t.Errorf("%s: end-to-end metric %s is 0", kind, name)
		}
	}
}

// BenchmarkSmoke lets the CI bench step (go test -bench=. -benchtime=1x)
// exercise every workload without a workflow edit.
func BenchmarkSmoke(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		for _, w := range workloads {
			out, err := runOnce(w, smokeConfig(dir, false), 0, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if len(out.failures) > 0 {
				b.Fatalf("%s: %v", w.name, out.failures)
			}
		}
	}
}
