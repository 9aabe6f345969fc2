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

// usageFigureIDs returns the ids on the usage text's `swbench figure` line.
func usageFigureIDs(t *testing.T) []string {
	t.Helper()
	for _, line := range strings.Split(usageText(), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "swbench figure "); ok {
			return strings.Split(strings.Fields(rest)[0], "|")
		}
	}
	t.Fatal("usage text has no `swbench figure` line")
	return nil
}

func TestFigureTableCoversUsage(t *testing.T) {
	ids := usageFigureIDs(t)
	if want := []string{"1", "4a", "4b", "4c", "5", "6", "scaling", "churn"}; strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Errorf("usage lists figures %v, want %v", ids, want)
	}
	for _, id := range ids {
		fam, err := lookupFigure(id)
		if err != nil {
			t.Errorf("figure %s is in the usage text but not in the table: %v", id, err)
			continue
		}
		if fam.run == nil || fam.render == nil || fam.csv == nil {
			t.Errorf("figure %s lacks one of run/render/csv: %+v", id, fam)
		}
	}
}

func TestUnknownFigureNamesValidIDs(t *testing.T) {
	_, err := lookupFigure("9")
	if err == nil {
		t.Fatal("figure 9 accepted")
	}
	for _, id := range usageFigureIDs(t) {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name the valid id %s", err, id)
		}
	}
	if err := renderFigure(swbench.SerialRunner{}, "9", swbench.Quick, false); err == nil {
		t.Error("renderFigure accepted figure 9")
	}
	if err := figureCSV(swbench.SerialRunner{}, "9", swbench.Quick, t.TempDir()+"/x.csv"); err == nil {
		t.Error("figureCSV accepted figure 9")
	}
}

// TestFigureTableMatchesCore holds one table entry's three functions to
// the library calls they stand for.
func TestFigureTableMatchesCore(t *testing.T) {
	o := swbench.RunOpts{Duration: swbench.Millisecond, Warmup: swbench.Millisecond}
	fam, err := lookupFigure("4c")
	if err != nil {
		t.Fatal(err)
	}
	data, err := fam.run(swbench.SerialRunner{}, o)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := core.FigureOn(core.SerialRunner{}, "4c", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, compare := range []bool{false, true} {
		var got, want bytes.Buffer
		fam.render(&got, data, compare)
		core.RenderFigure(&want, fig, compare)
		if got.String() != want.String() || got.Len() == 0 {
			t.Errorf("render(compare=%v):\n%s\nwant:\n%s", compare, &got, &want)
		}
	}
	var got, want bytes.Buffer
	if err := fam.csv(&got, data); err != nil {
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
// -bench-out` are gone; benchmark/run.sh is the one measurement harness.
func TestRetiredBenchSurfaceExitsUsage(t *testing.T) {
	code, stderr := runCLI(t, "bench")
	if code != 2 || !strings.HasPrefix(stderr, "usage: swbench") {
		t.Errorf("swbench bench: exit %d, stderr %q; want exit 2 and the usage text", code, stderr)
	}
	code, stderr = runCLI(t, "campaign", "fig4a", "-bench-out", "x")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -bench-out") {
		t.Errorf("swbench campaign fig4a -bench-out x: exit %d, stderr %q; want exit 2 and an undefined-flag error", code, stderr)
	}
}
