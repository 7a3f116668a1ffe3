package main

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	episim "repro"
	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/synthpop"
)

// call runs the command line args in-process.
func call(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = dispatch(args, &out, &errb)
	return code, out.String(), errb.String()
}

// must runs args and fails the test unless they exit 0.
func must(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	code, stdout, stderr := call(args...)
	if code != 0 {
		t.Fatalf("episim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// tiny are the flags of the population every test generates.
var tiny = []string{"-people", "300", "-locations", "60", "-seed", "3"}

func TestPopgenFileRunsLikeItsFlags(t *testing.T) {
	f := filepath.Join(t.TempDir(), "town.pop")
	out, _ := must(t, append([]string{"popgen", "-splitloc", "-out", f}, tiny...)...)
	for _, want := range []string{`population "custom": 300 persons, 60 locations`, "visits/person:", "visits/location:", "splitLoc: threshold", "written to " + f} {
		if !strings.Contains(out, want) {
			t.Errorf("popgen stdout lacks %q:\n%s", want, out)
		}
	}
	if again, _ := must(t, "popgen", "-in", f, "-stats=false"); !strings.HasPrefix(again, `population "custom": 300 persons, 60 locations, `) || strings.Count(again, "\n") != 1 {
		t.Errorf("popgen -in -stats=false printed %q", again)
	}

	sim := []string{"run", "-days", "8", "-ranks", "4", "-strategy", "rr", "-splitloc", "-json", "-"}
	fromFile, report := must(t, append(sim, "-in", f, "-seed", "3")...)
	generated, _ := must(t, append(sim, tiny...)...)
	if fromFile != generated {
		t.Error("run -in on popgen's file and run with popgen's flags print different results")
	}
	if !json.Valid([]byte(fromFile)) {
		t.Errorf("run -json - printed no JSON: %.200s", fromFile)
	}
	if !strings.HasPrefix(report, "population "+f+" — 300 persons") || !strings.Contains(report, "placement RR-splitLoc over 4 ranks") {
		t.Errorf("run -json - reported on stderr:\n%s", report)
	}

	curve := filepath.Join(t.TempDir(), "curve.csv")
	out, _ = must(t, append([]string{"run", "-days", "8", "-ranks", "4", "-model-time", "-out", curve}, tiny...)...)
	for _, want := range []string{"population custom — 300 persons", "placement GP over 4 ranks", "simulated 8 days",
		"total infections", "messages:", "modeled Blue Waters time/day at 4 ranks", "epidemic curve written to " + curve} {
		if !strings.Contains(out, want) {
			t.Errorf("run stdout lacks %q:\n%s", want, out)
		}
	}
	if b, err := os.ReadFile(curve); err != nil || strings.Count(string(b), "\n") != 9 {
		t.Errorf("curve file: %v, %d lines", err, strings.Count(string(b), "\n"))
	}
}

// A one-location town (a lone home, nowhere else to go) runs to the end.
func TestRunOneLocationTown(t *testing.T) {
	out, _ := must(t, "run", "-people", "50", "-locations", "1", "-days", "5")
	if !strings.Contains(out, "population custom — 50 persons, 1 locations") || !strings.Contains(out, "simulated 5 days") {
		t.Errorf("run -locations 1 printed:\n%s", out)
	}
}

// Every way a population file can be wrong ends run, popgen and partition
// with status 1 and an "episim:" error, never a panic or a population.
func TestHostilePopulationFiles(t *testing.T) {
	dir := t.TempDir()
	pop := synthpop.Generate(synthpop.DefaultConfig("custom", 300, 60, 3))
	sealed := artifact.Seal(artifact.KindPopulation, populationKey, artifact.EncodePopulation(pop))
	files := map[string][]byte{
		"truncated": sealed[:len(sealed)/2],
		"empty":     nil,
		"placement": artifact.Seal(artifact.KindPlacement, populationKey, artifact.EncodePlacement(&artifact.Placement{
			Pop: pop, PersonRank: make([]int32, 300), LocationRank: make([]int32, 60), Ranks: 1, Label: "RR"})),
	}
	for _, at := range []int{0, 5, 7, 12, 40, len(sealed) / 2, len(sealed) - 1} {
		flipped := bytes.Clone(sealed)
		flipped[at] ^= 0x10
		files[fmt.Sprintf("byte %d flipped", at)] = flipped
	}
	var legacy bytes.Buffer
	zw := gzip.NewWriter(&legacy)
	if err := gob.NewEncoder(zw).Encode(pop); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	files["gzip+gob"] = legacy.Bytes()

	for name, data := range files {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sub := range []string{"run", "popgen", "partition"} {
			code, stdout, stderr := call(sub, "-in", path)
			if code != 1 || !strings.HasPrefix(stderr, "episim: ") || stdout != "" {
				t.Errorf("%s -in %s file: exit %d, stdout %q, stderr %q", sub, name, code, stdout, stderr)
			}
		}
	}
}

func TestSweepCacheDir(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"populations": [{"name": "town", "people": 300, "locations": 60}],
		"placements": [{"strategy": "RR", "ranks": 4}, {"strategy": "GP", "splitloc": true, "ranks": 4}],
		"replicates": 2, "days": 6, "seed": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sweep := func(cache, out string) (stdout, stderr string) {
		return must(t, "sweep", "-spec", spec, "-cache-dir", filepath.Join(dir, cache), "-out", out,
			"-summary", filepath.Join(dir, "summary.csv"), "-curves", filepath.Join(dir, "curves.csv"))
	}
	_, cold := sweep("cache", filepath.Join(dir, "cold.json"))
	_, warm := sweep("cache", filepath.Join(dir, "warm.json"))
	if !strings.Contains(cold, "sweep: 2 cells × 2 replicates = 4 simulations") || !strings.Contains(cold, "(2 placements built, 0 loaded from cache dir)") {
		t.Errorf("cold sweep stderr:\n%s", cold)
	}
	if !strings.Contains(warm, "(0 placements built, 2 loaded from cache dir)") || !strings.Contains(warm, "sweep: wrote "+filepath.Join(dir, "curves.csv")) {
		t.Errorf("warm sweep stderr:\n%s", warm)
	}
	coldJSON, _ := os.ReadFile(filepath.Join(dir, "cold.json"))
	warmJSON, _ := os.ReadFile(filepath.Join(dir, "warm.json"))
	if len(coldJSON) == 0 || !bytes.Equal(coldJSON, warmJSON) {
		t.Error("the cold and warm sweeps wrote different aggregate JSON")
	}
	if stdout, _ := sweep("cache", "-"); stdout != string(coldJSON) {
		t.Error("-out - printed other JSON than -out FILE wrote")
	}

	if _, stderr := must(t, "sweep", "-spec", spec, "-cache-dir", filepath.Join(dir, "prewarm"), "-warm"); !strings.Contains(stderr, "(2 built, 0 already cached)") {
		t.Errorf("sweep -warm stderr:\n%s", stderr)
	}
	example, _ := must(t, "sweep", "-example")
	if _, err := episim.ParseSweepSpec(strings.NewReader(example)); err != nil {
		t.Errorf("sweep -example printed a spec that does not parse: %v", err)
	}
	for _, args := range [][]string{{"sweep"}, {"sweep", "-spec", spec, "-warm"}, {"sweep", "-trace", "sw-1"}} {
		if code, _, stderr := call(args...); code != 1 || !strings.HasPrefix(stderr, "episim: ") {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
		}
	}
}

func TestPartition(t *testing.T) {
	out, _ := must(t, append([]string{"partition", "-ranks", "4", "-compare"}, tiny...)...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[0], `population "custom": 300 persons, 60 locations, `) || !strings.HasSuffix(lines[0], " visits; 4 ranks") {
		t.Fatalf("partition -compare printed:\n%s", out)
	}
	for i, label := range []string{"strategy", "RR", "GP", "RR-splitLoc", "GP-splitLoc"} {
		if f := strings.Fields(lines[i+1]); f[0] != label {
			t.Errorf("row %d is %q, want %s", i+1, lines[i+1], label)
		}
	}
	out, _ = must(t, append([]string{"partition", "-ranks", "4", "-strategy", "RR", "-splitloc"}, tiny...)...)
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3 || !strings.HasPrefix(lines[2], "RR-splitLoc ") {
		t.Errorf("partition -strategy RR -splitloc printed:\n%s", out)
	}
	if code, _, stderr := call("partition", "-strategy", "XX"); code != 1 || stderr != "episim: unknown strategy \"XX\" (want RR or GP)\n" {
		t.Errorf("partition -strategy XX: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := call("popgen"); code != 1 || !strings.HasPrefix(stderr, "episim: need -state") {
		t.Errorf("popgen without a population source: exit %d, stderr %q", code, stderr)
	}
}

func TestFigures(t *testing.T) {
	out, _ := must(t, "figures", "-list")
	for _, e := range experiments.All() {
		if !strings.Contains(out, "  "+e.Name+" ") {
			t.Errorf("figures -list does not name %s:\n%s", e.Name, out)
		}
	}
	out, _ = must(t, "figures", "-run", "fig2")
	if !strings.HasPrefix(out, "==== fig2: ") || !strings.Contains(out, "---- fig2 done in ") {
		t.Errorf("figures -run fig2 printed:\n%s", out)
	}
	for _, args := range [][]string{{"-run", "fig99"}, {"-run", "fig2", "-scale", "0"}} {
		if code, _, stderr := call(append([]string{"figures"}, args...)...); code != 1 || !strings.HasPrefix(stderr, "episim: ") {
			t.Errorf("figures %v: exit %d, stderr %q", args, code, stderr)
		}
	}
}

// TestFiguresGolden pins every line `episim figures -run all -quick` prints,
// byte for byte, except what the wall clock decides: Figure 3(a) and (b),
// which fit timed DES runs, and each experiment's "done in" line. A change
// that means to move a figure pastes the new output into the golden file.
func TestFiguresGolden(t *testing.T) {
	out, _ := must(t, "figures", "-run", "all", "-quick")
	got := strings.Split(maskFigures(out), "\n")
	b, err := os.ReadFile(filepath.Join("testdata", "figures-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(b), "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("figures -run all -quick line %d:\n got %q\nwant %q\nmasked output:\n%s", i+1, g, w, strings.Join(got, "\n"))
		}
	}
}

// maskFigures replaces each line of Figure 3(a) and (b) with "<timed>" and
// the elapsed time of each done line with "<elapsed>".
func maskFigures(out string) string {
	lines := strings.Split(out, "\n")
	timed := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Figure 3(a)"):
			timed = true
		case strings.HasPrefix(l, "Figure 3(c)"):
			timed = false
		}
		if name, _, done := strings.Cut(l, " done in "); timed {
			lines[i] = "<timed>"
		} else if done && strings.HasPrefix(l, "---- ") && strings.HasSuffix(l, " ----") {
			lines[i] = name + " done in <elapsed> ----"
		}
	}
	return strings.Join(lines, "\n")
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"simulate"}, {"-state", "WY"}} {
		code, stdout, stderr := call(args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "Usage: episim <subcommand>") {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "\n  "+c.name+" ") {
				t.Errorf("%v: the usage does not list %s", args, c.name)
			}
		}
	}
	for _, c := range commands {
		if code, _, stderr := call(c.name, "-no-such-flag"); code != 2 || !strings.Contains(stderr, "Usage of episim "+c.name+":") {
			t.Errorf("%s -no-such-flag: exit %d, stderr %q", c.name, code, stderr)
		}
		if code, _, _ := call(c.name, "-h"); code != 0 {
			t.Errorf("%s -h: exit %d", c.name, code)
		}
	}
}
