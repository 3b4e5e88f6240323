package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// malformed is a corrupted trace batch and a substring of the error it
// must produce.
type malformed struct {
	name, want string
	batch      []byte
}

// corrupt returns three corruptions of batch, a `weseer collect -o` file,
// each of which used to panic a phase-3 worker: result columns fewer than
// the result rows' cells, which the trace reader refuses, and a table no
// schema has and integer parameter variables re-sorted as strings, which
// the analyzer refuses.
func corrupt(t *testing.T, batch []byte) []malformed {
	t.Helper()
	mutate := func(name, want string, f func(st map[string]any) bool) malformed {
		var traces []map[string]any
		dec := json.NewDecoder(bytes.NewReader(batch))
		dec.UseNumber()
		if err := dec.Decode(&traces); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tr := range traces {
			for _, txn := range tr["txns"].([]any) {
				for _, st := range txn.(map[string]any)["stmts"].([]any) {
					if f(st.(map[string]any)) {
						n++
					}
				}
			}
		}
		out, err := json.Marshal(traces)
		if err != nil || n == 0 {
			t.Fatalf("%s: %d statements corrupted (%v)", name, n, err)
		}
		return malformed{name, want, out}
	}
	return []malformed{
		mutate("short cols", "trace: result sym row has", func(st map[string]any) bool {
			res, _ := st["res"].(map[string]any)
			cols, _ := res["cols"].([]any)
			if rows, _ := res["sym"].([]any); len(cols) < 2 || len(rows) == 0 {
				return false
			}
			res["cols"] = cols[:1]
			return true
		}),
		mutate("unknown table", "table Nowhere is not in the schema", func(st map[string]any) bool {
			sql := st["sql"].(string)
			if !strings.HasPrefix(sql, "UPDATE ") {
				return false
			}
			st["sql"] = strings.Replace(sql, strings.Fields(sql)[1], "Nowhere", 1)
			return true
		}),
		mutate("param sort", "compares Int with String", func(st map[string]any) bool {
			n := 0
			params, _ := st["params"].([]any)
			for _, p := range params {
				if sym, _ := p.(map[string]any)["sym"].(map[string]any); sym["k"] == "var" && sym["sort"] == json.Number("1") {
					sym["sort"] = json.Number("3")
					n++
				}
			}
			return n > 0
		}),
	}
}

// TestAnalyzeRejectsMalformedTraces: each corrupted broadleaf batch used
// to panic an analysis worker, killing `weseer analyze -i` with exit
// status 2. Now it is an error naming what is wrong and, from the
// analyzer, the trace and the statement: exit status 1.
func TestAnalyzeRejectsMalformedTraces(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "traces.json")
	if _, stderr, status := weseer(t, "collect -app broadleaf -o "+good); status != 0 {
		t.Fatalf("collect: exit status %d\n%s", status, stderr)
	}
	batch, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corrupt(t, batch) {
		bad := filepath.Join(dir, fmt.Sprintf("bad%d.json", i))
		if err := os.WriteFile(bad, c.batch, 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, status := weseer(t, "analyze -app broadleaf -i "+bad)
		if status != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit status %d, want 1 and an error naming %q\n%s", c.name, status, c.want, stderr)
		}
		if !strings.HasPrefix(c.want, "trace:") && !strings.Contains(stderr, "core: trace ") {
			t.Errorf("%s: the error names no trace:\n%s", c.name, stderr)
		}
	}
}
