package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestRunRemovesTempDirOnError: a failing run still removes the -store disk
// temp segment directory it created.
func TestRunRemovesTempDirOnError(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if err := run([]string{"-store", "disk", "-exp", "nosuch"}, io.Discard); err == nil {
		t.Fatal("unknown experiment: no error")
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("TMPDIR holds %d entries after the run, want 0 (first %q)", len(left), left[0].Name())
	}
}

// TestTPCHOnlyExperimentRejectsOtherBench: a TPC-H-only experiment asked to
// run on another bench fails instead of printing TPC-H rows.
func TestTPCHOnlyExperimentRejectsOtherBench(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig12", "-bench", "ssb"}, &out)
	if err == nil || !strings.Contains(err.Error(), "TPC-H only") {
		t.Fatalf("fig12 -bench ssb: err = %v, want a TPC-H-only error", err)
	}
	if out.Len() != 0 {
		t.Errorf("fig12 -bench ssb printed %q", out.String())
	}
	if err := run([]string{"-exp", "fig12", "-bench", "nosuch"}, io.Discard); err == nil {
		t.Error("unknown -bench: no error")
	}
}

// TestAllSkipsTPCHOnlyForOtherBench: -exp all with -bench ssb runs every
// other experiment and skips each TPC-H-only one with a one-line note.
func TestAllSkipsTPCHOnlyForOtherBench(t *testing.T) {
	var ran []string
	stub := func(name string) func(*runner) error {
		return func(*runner) error { ran = append(ran, name); return nil }
	}
	saved := table
	defer func() { table = saved }()
	table = []experiment{
		{name: "a", run: stub("a")},
		{name: "b", tpchOnly: true, run: stub("b")},
		{name: "c", run: stub("c")},
	}

	var out bytes.Buffer
	r := &runner{bench: "SSB", out: &out}
	if err := r.runNamed("all"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ","); got != "a,c" {
		t.Errorf("ran %s, want a,c", got)
	}
	if got, want := out.String(), "b: skipped, runs on TPC-H only (-bench SSB)\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}

	ran = nil
	r = &runner{bench: "TPC-H", out: io.Discard}
	if err := r.runNamed("all"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ","); got != "a,b,c" {
		t.Errorf("-bench tpch ran %s, want a,b,c", got)
	}
}
