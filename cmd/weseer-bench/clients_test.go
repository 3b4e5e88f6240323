package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary
// with WESEER_BENCH_MAIN=1, so tests can check exit codes and output.
func TestMain(m *testing.M) {
	if os.Getenv("WESEER_BENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestParseClients: -clients is every entry or an error — a bad entry
// anywhere in the list rejects the whole flag instead of truncating it.
func TestParseClients(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"8,64,128", []int{8, 64, 128}},
		{"2", []int{2}},
		{" 8, 64 ", []int{8, 64}},
	} {
		if got, err := parseClients(c.in); err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseClients(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"8,x,64", "8;64", "", "8,,64", "0", "-4", "8,64,"} {
		if got, err := parseClients(bad); err == nil {
			t.Errorf("parseClients(%q) = %v, want an error", bad, got)
		}
	}
}

// TestEmptyLoadIsUsageError: a non-positive -duration, -fixdur or
// -fixclients would drive a load that makes no calls, so it is a usage
// error like a bad -clients: exit 2 with the flag named on stderr, and
// nothing on stdout because no experiment ran.
func TestEmptyLoadIsUsageError(t *testing.T) {
	const tiny = "gen:5,templates=4,modules=1,tables=3,rows=4,classes=f2:1"
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-duration", []string{"-exp", "fig11", "-clients", "2", "-duration", "0"}},
		{"-duration", []string{"-exp", "fig11", "-clients", "2", "-duration", "-1s"}},
		{"-fixdur", []string{"-exp", "fixgain", "-fixapps", tiny, "-fixout", "", "-fixdur", "0"}},
		{"-fixclients", []string{"-exp", "fixgain", "-fixapps", tiny, "-fixout", "", "-fixdur", "20ms", "-fixclients", "0"}},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "WESEER_BENCH_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want 2", c.args, err)
		}
		if !strings.Contains(stderr.String(), "weseer-bench: "+c.flag+" ") {
			t.Errorf("%v: stderr does not name %s:\n%s", c.args, c.flag, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: an experiment ran:\n%s", c.args, stdout.String())
		}
	}
}
