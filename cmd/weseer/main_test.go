package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv makes a re-executed test binary run main with these
// space-separated arguments instead of its tests.
const mainArgsEnv = "WESEER_TEST_MAIN_ARGS"

// TestReproduceNeedsTextReport: -reproduce replays the text report's
// deadlocks, so asking for it with -json or -coarse is a usage error (exit
// status 2) instead of a run that replays nothing and exits 0.
func TestReproduceNeedsTextReport(t *testing.T) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"weseer"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"run -app shopizer -reproduce -json",
		"run -app shopizer -reproduce -coarse",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestReproduceNeedsTextReport$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("weseer %s: %v, want exit status 2\n%s", args, err, out)
		} else if !strings.Contains(string(out), "-reproduce") {
			t.Errorf("weseer %s: the usage error does not name -reproduce:\n%s", args, out)
		}
	}
}
