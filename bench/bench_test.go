package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runToy runs the command at smoke scale and returns the result object it
// printed last.
func runToy(t *testing.T, args ...string) (result, error) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	var stdout bytes.Buffer
	err := run(append([]string{"-toy", "-seconds", "0"}, args...), &stdout, io.Discard)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil && err == nil {
		t.Fatalf("last line of stdout is not a result object: %v\n%s", jerr, stdout.String())
	}
	return res, err
}

// TestContract runs every workload traced and untraced and holds what it
// prints against BENCHMARK.json: exactly the declared metrics, each with
// its declared unit, and a verdict of correct.
func TestContract(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, e := range sp.EndToEnd {
		if !name.MatchString(e.Name) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %q: bad name or bound %v", e.Name, e.Bound)
		}
		endToEnd[e.Name] = e.Unit
	}
	for _, e := range sp.PerLayer {
		if !name.MatchString(e.Name) {
			t.Errorf("per_layer %q: bad name", e.Name)
		}
		perLayer[e.Name] = e.Unit
	}
	if _, ok := endToEnd["setup_s"]; !ok {
		t.Error("end_to_end lacks setup_s")
	}
	if len(sp.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(sp.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the command %q", i, sp.Workloads[i].Name, w.name)
		}
		for mode, want := range map[string]map[string]string{"0": endToEnd, "1": perLayer} {
			res, err := runToy(t, "-workload", w.name, "-trace", mode)
			if err != nil {
				t.Fatalf("%s -trace %s: %v", w.name, mode, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w.name, mode, res.Correct, res.Attempted, res.Failed)
			}
			for n, unit := range want {
				if m, ok := res.Metrics[n]; !ok {
					t.Errorf("%s -trace %s: metric %s not emitted", w.name, mode, n)
				} else if m.Unit != unit {
					t.Errorf("%s -trace %s: %s has unit %q, BENCHMARK.json says %q", w.name, mode, n, m.Unit, unit)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s -trace %s: metric %s is not in BENCHMARK.json", w.name, mode, n)
				}
			}
			if mode == "0" {
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, n, m.Value)
					}
				}
			} else if cov := res.Metrics["trace.coverage"].Value; cov <= 0 {
				t.Errorf("%s: trace.coverage = %v, not computed", w.name, cov)
			}
		}
	}
}

// TestCorruptGoldenFails flips one golden number and expects the command
// to report failure: the result says incorrect and run returns an error
// (exit code 1), where the untouched copy passes.
func TestCorruptGoldenFails(t *testing.T) {
	dir := t.TempDir()
	write := func(expected []byte) {
		for name, data := range map[string][]byte{"expected.json": expected, "randprog_manifest.json": manifestJSON} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(expectedJSON)
	if res, err := runToy(t, "-workload", "cold_kernels", "-testdata", dir); err != nil || !res.Correct {
		t.Fatalf("pristine goldens: correct=%v err=%v", res.Correct, err)
	}

	g, err := loadGoldens(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	cell := g.Cells["adpcmdec/gremio"]
	cell.CocoCycles++
	g.Cells["adpcmdec/gremio"] = cell
	corrupt, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	write(corrupt)
	res, err := runToy(t, "-workload", "cold_kernels", "-testdata", dir)
	if err == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupt golden: correct=%v failed=%d err=%v, want a failure", res.Correct, res.Failed, err)
	}
}

// TestManifestDrift: a manifest fingerprint the generator no longer
// produces stops the command before it measures anything.
func TestManifestDrift(t *testing.T) {
	if err := checkManifest(manifestJSON); err != nil {
		t.Fatalf("committed manifest: %v", err)
	}
	m := corpusManifest(DefaultSeed, 2)
	m.Programs[1].Fingerprint = "0000000000000000"
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := checkManifest(buf.Bytes()); err == nil {
		t.Fatal("drifted fingerprint accepted")
	}
}

// TestSeedPlumbing: every generated input derives from the one seed.
func TestSeedPlumbing(t *testing.T) {
	bodies := func(reqs []request) [][]byte {
		var out [][]byte
		for _, r := range reqs {
			out = append(out, r.Body)
		}
		return out
	}
	equal := func(a, b [][]byte) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	a, again, b := inlineCorpus(7, 8), inlineCorpus(7, 8), inlineCorpus(8, 8)
	if !equal(bodies(a), bodies(again)) {
		t.Error("same seed, different inline bodies")
	}
	for i := range a {
		if bytes.Equal(a[i].Body, b[i].Body) {
			t.Errorf("program %d is the same under seeds 7 and 8", i)
		}
	}
	used := map[string]bool{}
	for _, r := range a {
		used[r.Req.Partitioner] = true
	}
	if len(used) != len(partitioners) {
		t.Errorf("the corpus uses partitioners %v, want both", used)
	}

	ka, kb := zipfKeys(7, 4), zipfKeys(8, 4)
	for i := range ka {
		kernel := ka[i].Req.Workload != ""
		if same := bytes.Equal(ka[i].Body, kb[i].Body); same != kernel {
			t.Errorf("key rank %d (%s): same across seeds = %v, kernel = %v", i, ka[i].Label, same, kernel)
		}
	}

	quota := zipfQuota(500, 132)
	sa, sagain, sb := zipfPass(zipfRand(7), quota), zipfPass(zipfRand(7), quota), zipfPass(zipfRand(8), quota)
	same, differs := len(sa) == 500, false
	seen := make([]int, len(quota))
	for i := range sa {
		same = same && sa[i] == sagain[i]
		differs = differs || sa[i] != sb[i]
		seen[sa[i]]++
	}
	if !same || !differs {
		t.Errorf("request order: same seed repeats = %v, other seed differs = %v", same, differs)
	}
	for k := range quota {
		if seen[k] != quota[k] || (k > 0 && quota[k] > quota[k-1]) {
			t.Fatalf("rank %d: sent %d of quota %d (rank %d has %d)", k, seen[k], quota[k], k-1, quota[max(k-1, 0)])
		}
	}
}
