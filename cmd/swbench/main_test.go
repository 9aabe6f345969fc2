package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	swbench "repro"
	"repro/internal/core"
)

// beCLI makes the test binary behave as the swbench command, so the
// tests can observe main's exit codes (see runCLI).
const beCLI = "SWBENCH_TEST_BE_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(beCLI) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as `swbench args...` and returns its
// exit code and standard error.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beCLI+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("swbench %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// usageIDs returns the ids on the usage text's `swbench <kind>` line.
func usageIDs(t *testing.T, kind string) []string {
	t.Helper()
	for _, line := range strings.Split(usageText(), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "swbench "+kind+" "); ok {
			return strings.Split(strings.Fields(rest)[0], "|")
		}
	}
	t.Fatalf("usage text has no `swbench %s` line", kind)
	return nil
}

// TestUsageTextUnchanged: the usage text takes its id lists from the
// registry and still reads, byte for byte, as testdata/usage.txt — what bare
// `swbench` printed when they were typed in.
func TestUsageTextUnchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := usageText(); got != string(want) {
		t.Errorf("usage text:\n%s\nwant:\n%s", got, want)
	}
}

// constRunner answers every spec with the same small Result, so every
// registry entry runs in microseconds.
type constRunner struct{}

func (constRunner) RunAll(specs []swbench.Config) []swbench.SpecOutcome {
	outs := make([]swbench.SpecOutcome, len(specs))
	for i, cfg := range specs {
		outs[i].Result = swbench.Result{Config: cfg, Gbps: 1, Mpps: 1, Dirs: []core.DirResult{{Gbps: 1, Mpps: 1}}}
	}
	return outs
}

// TestFigureTableCoversUsage: the usage text and the registry list the same
// figure and table ids, and every entry runs, renders and — every figure —
// writes CSV.
func TestFigureTableCoversUsage(t *testing.T) {
	want := map[string][]string{
		"figure": {"1", "4a", "4b", "4c", "5", "6", "scaling", "churn"},
		"table":  {"1", "2", "3", "4", "5"},
	}
	for kind, wantIDs := range want {
		ids := usageIDs(t, kind)
		if strings.Join(ids, " ") != strings.Join(wantIDs, " ") {
			t.Errorf("usage lists %ss %v, want %v", kind, ids, wantIDs)
		}
		for _, id := range ids {
			e, err := lookupExperiment(kind, id)
			if err != nil {
				t.Errorf("%s %s is in the usage text but not in the registry: %v", kind, id, err)
				continue
			}
			if e.Title == "" {
				t.Errorf("%s %s has no title", kind, id)
			}
			rep, err := e.Run(constRunner{}, swbench.Quick)
			if err != nil {
				t.Errorf("%s %s: %v", kind, id, err)
				continue
			}
			var text, csv bytes.Buffer
			if rep.Render(&text, true); text.Len() == 0 {
				t.Errorf("%s %s renders nothing", kind, id)
			}
			if err := rep.CSV(&csv); kind == "figure" && (err != nil || csv.Len() == 0) {
				t.Errorf("figure %s writes no CSV: %v", id, err)
			}
		}
	}
	for _, e := range swbench.Experiments() {
		if !strings.Contains(" "+strings.Join(want[e.Kind], " ")+" ", " "+e.ID+" ") {
			t.Errorf("registry entry %s %s is not in the usage text", e.Kind, e.ID)
		}
	}
}

// TestUnknownFigureNamesValidIDs: both verbs answer an unknown or missing id
// with the ids of their kind.
func TestUnknownFigureNamesValidIDs(t *testing.T) {
	for _, kind := range []string{"figure", "table"} {
		_, err := lookupExperiment(kind, "9")
		if err == nil {
			t.Fatalf("%s 9 accepted", kind)
		}
		noID := experimentCmd(kind, nil)
		if noID == nil {
			t.Fatalf("%s without an id accepted", kind)
		}
		ids := strings.Join(usageIDs(t, kind), ", ")
		if want := "unknown " + kind + ` "9" (want ` + ids + ")"; err.Error() != want {
			t.Errorf("error %q, want %q", err, want)
		}
		if want := kind + " needs an id: " + ids; noID.Error() != want {
			t.Errorf("error %q, want %q", noID, want)
		}
		if code, stderr := runCLI(t, kind, "9", "-quick"); code != 1 || !strings.Contains(stderr, err.Error()) {
			t.Errorf("swbench %s 9: exit %d, stderr %q; want exit 1 and %q", kind, code, stderr, err)
		}
	}
	if code, stderr := runCLI(t, "figure", "9", "-quick", "-csv", t.TempDir()+"/x.csv"); code != 1 || !strings.Contains(stderr, "unknown figure") {
		t.Errorf("swbench figure 9 -csv: exit %d, stderr %q; want exit 1 and an unknown-figure error", code, stderr)
	}
}

// TestFigureTableMatchesCore holds one registry entry's three outputs to
// the library calls they stand for.
func TestFigureTableMatchesCore(t *testing.T) {
	o := swbench.RunOpts{Duration: swbench.Millisecond, Warmup: swbench.Millisecond}
	e, err := lookupExperiment("figure", "4c")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(swbench.SerialRunner{}, o)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := core.FigureOn(core.SerialRunner{}, "4c", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, compare := range []bool{false, true} {
		var got, want bytes.Buffer
		rep.Render(&got, compare)
		core.RenderFigure(&want, fig, compare)
		if got.String() != want.String() || got.Len() == 0 {
			t.Errorf("render(compare=%v):\n%s\nwant:\n%s", compare, &got, &want)
		}
	}
	var got, want bytes.Buffer
	if err := rep.CSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteFigureCSV(&want, fig); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || got.Len() == 0 {
		t.Errorf("csv:\n%s\nwant:\n%s", &got, &want)
	}
}

// TestRetiredBenchSurfaceExitsUsage: the `bench` verb and `campaign
// -bench-out` are gone (benchmark/run.sh is the one measurement harness),
// and so are `campaign -manifest` and `-resume` (the result cache is the
// one resume ledger).
func TestRetiredBenchSurfaceExitsUsage(t *testing.T) {
	code, stderr := runCLI(t, "bench")
	if code != 2 || !strings.HasPrefix(stderr, "usage: swbench") {
		t.Errorf("swbench bench: exit %d, stderr %q; want exit 2 and the usage text", code, stderr)
	}
	for _, args := range [][]string{
		{"campaign", "fig4a", "-bench-out", "x"},
		{"campaign", "fig4a", "-manifest", "x"},
		{"campaign", "fig4a", "-resume"},
	} {
		code, stderr = runCLI(t, args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[2]) {
			t.Errorf("swbench %s: exit %d, stderr %q; want exit 2 and an undefined-flag error", strings.Join(args, " "), code, stderr)
		}
	}
}
