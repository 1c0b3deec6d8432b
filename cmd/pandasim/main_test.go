package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// bin is the command under test, built once: go run would report every
// nonzero exit status as 1.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pandasim")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "pandasim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// pandasim runs the command with args and returns its stdout, stderr
// and exit status.
func pandasim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("pandasim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestPandasimRefusesBadFlags: a misspelt operation, schema or disk
// model, or a trace asked of a ranking that runs nothing, is refused
// before anything runs — exit 2, nothing on stdout, the reason on
// stderr — rather than quietly measuring the default.
func TestPandasimRefusesBadFlags(t *testing.T) {
	for _, c := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-schema", "traditional"}, "natural, trad"},
		{[]string{"-op", "wrte"}, "read, write"},
		{[]string{"-disk", "ssd"}, "aix, fast"},
		{[]string{"-candidates", "-trace", "t.json"}, "-candidates runs nothing"},
	} {
		stdout, stderr, code := pandasim(t, c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.reason) {
			t.Errorf("pandasim %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr saying %s",
				c.args, code, stdout, stderr, c.reason)
		}
	}
}

// TestPandasimRanksCandidates: -candidates prices the five candidate
// disk schemas of the default cell, best first, without running it.
func TestPandasimRanksCandidates(t *testing.T) {
	stdout, stderr, code := pandasim(t, "-candidates")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	ranked := regexp.MustCompile(`(?m)^  [1-5]\. .* predicted `).FindAllString(stdout, -1)
	if len(ranked) != 5 || !strings.Contains(ranked[0], "natural") {
		t.Fatalf("want five ranked lines, natural first:\n%s", stdout)
	}
	if strings.Contains(stdout, "elapsed") {
		t.Fatalf("-candidates ran the cell:\n%s", stdout)
	}
}

// TestPandasimPrintsPrediction: a server-directed run prints the cost
// model's elapsed and each I/O node's predicted busy time beside the
// simulated elapsed.
func TestPandasimPrintsPrediction(t *testing.T) {
	stdout, stderr, code := pandasim(t, "-size", "8", "-ion", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"  elapsed ", "  predicted ", "i/o node 0 ", "i/o node 1 "} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output lacks %q:\n%s", want, stdout)
		}
	}
}
