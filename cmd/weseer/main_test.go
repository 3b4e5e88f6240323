package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv makes a re-executed test binary run main with these
// space-separated arguments instead of its tests.
const mainArgsEnv = "WESEER_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"weseer"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// weseer runs main with args in a child process and returns its stdout,
// its stderr and its exit status.
func weseer(t *testing.T, args string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("weseer %s: %v", args, err)
	}
	return out.String(), errOut.String(), status
}

// TestReproduceNeedsTextReport: -reproduce replays the text report's
// deadlocks, so asking for it with -json or -coarse is a usage error (exit
// status 2) instead of a run that replays nothing and exits 0.
func TestReproduceNeedsTextReport(t *testing.T) {
	for _, args := range []string{
		"run -app shopizer -reproduce -json",
		"run -app shopizer -reproduce -coarse",
	} {
		_, stderr, status := weseer(t, args)
		if status != 2 {
			t.Errorf("weseer %s: exit status %d, want 2\n%s", args, status, stderr)
		} else if !strings.Contains(stderr, "-reproduce") {
			t.Errorf("weseer %s: the usage error does not name -reproduce:\n%s", args, stderr)
		}
	}
}

// TestPartialReportExits3: an analysis cut short by -timeout still prints
// its report, but "run" and "analyze" exit 3, not 0, and -json marks the
// report "partial"; a complete report has no such key.
func TestPartialReportExits3(t *testing.T) {
	traces := filepath.Join(t.TempDir(), "traces.json")
	if _, stderr, status := weseer(t, "collect -app shopizer -o "+traces); status != 0 {
		t.Fatalf("collect: exit status %d\n%s", status, stderr)
	}
	partial := func(stdout string) (bool, bool) {
		var rep map[string]any
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("-json output does not decode: %v\n%s", err, stdout)
		}
		p, ok := rep["partial"]
		return p == true, ok
	}
	for _, args := range []string{"run -app shopizer", "analyze -app shopizer -i " + traces} {
		stdout, stderr, status := weseer(t, args+" -timeout 1ns")
		if status != 3 || !strings.Contains(stdout, "deadlock reports") || !strings.Contains(stderr, "timeout hit") {
			t.Errorf("weseer %s -timeout 1ns: exit status %d, want 3 after the report and a note\nstdout:\n%s\nstderr:\n%s",
				args, status, stdout, stderr)
		}
		stdout, _, status = weseer(t, args+" -timeout 1ns -json")
		if p, _ := partial(stdout); status != 3 || !p {
			t.Errorf("weseer %s -timeout 1ns -json: exit status %d, partial %v; want 3 and true", args, status, p)
		}
		stdout, _, status = weseer(t, args+" -json")
		if _, ok := partial(stdout); status != 0 || ok {
			t.Errorf("weseer %s -json: exit status %d, partial key present %v; want 0 and absent", args, status, ok)
		}
	}
}

// TestStrayArgumentsAreUsageErrors: run, collect, analyze, serve and
// ingest take flags only, and history one query kind. A positional argument
// beyond those, such as an app spec without -app, is a usage error (exit
// status 2, the flags on stderr) instead of being ignored — before any
// command dials a daemon or creates its store.
func TestStrayArgumentsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	out, store := filepath.Join(dir, "traces.json"), filepath.Join(dir, "history.wal")
	for _, c := range []struct{ name, args string }{
		{"run", "run gen:7,templates=1056"},
		{"collect", "collect -o " + out + " gen:7,templates=12"},
		{"analyze", "analyze -app shopizer -i " + out + " extra"},
		{"serve", "serve -store " + store + " stray"},
		{"ingest", "ingest stray.json -addr 127.0.0.1:1"},
		{"history", "history -addr 127.0.0.1:1 events patterns"},
	} {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, status := weseer(t, c.args)
			if status != 2 || stdout != "" {
				t.Errorf("weseer %s: exit status %d, stdout %q; want 2 and nothing", c.args, status, stdout)
			}
			if !strings.Contains(stderr, "unexpected argument") || !strings.Contains(stderr, "Usage of "+c.name) {
				t.Errorf("weseer %s: stderr lacks the error and the usage text:\n%s", c.args, stderr)
			}
		})
	}
	for _, f := range []string{out, store} {
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a command with a stray argument wrote %s (stat: %v)", f, err)
		}
	}
}
