package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv switches the test binary into the experiments command itself,
// so its flag handling and exit status can be checked in a subprocess.
const mainEnv = "EXPERIMENTS_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command runs the experiments command with args and returns its stdout,
// stderr and exit status.
func command(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestRunIDsUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, r := range runs {
		if r.id == "" || seen[r.id] {
			t.Errorf("id %q is empty, reserved or repeated", r.id)
		}
		seen[r.id] = true
	}
}

// An unknown -run id exits with status 2 and the list of valid ids,
// before any dataset is built or any experiment runs.
func TestUnknownRunIDExitsTwo(t *testing.T) {
	for _, id := range []string{"fig12", "Table2a", "all,scale", ""} {
		t.Run(id, func(t *testing.T) {
			stdout, stderr, code := command(t, "-run="+id)
			if code != 2 {
				t.Errorf("exit status %d; want 2", code)
			}
			if stdout != "" {
				t.Errorf("printed %q; want nothing on stdout", stdout)
			}
			for _, r := range runs {
				if !strings.Contains(stderr, r.id) {
					t.Errorf("stderr %q does not list id %q", stderr, r.id)
				}
			}
		})
	}
}

func TestFlagHelpListsEveryID(t *testing.T) {
	_, stderr, code := command(t, "-h")
	if code != 0 {
		t.Errorf("-h exit status %d; want 0", code)
	}
	ids := []string{"all"}
	for _, r := range runs {
		ids = append(ids, r.id)
	}
	for _, id := range ids {
		if !strings.Contains(stderr, id) {
			t.Errorf("help %q does not list id %q", stderr, id)
		}
	}
}

// A known id runs that experiment alone.
func TestRunOneID(t *testing.T) {
	stdout, stderr, code := command(t, "-run", "table2a")
	if code != 0 {
		t.Fatalf("exit status %d; stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "Table 2 — Likelihood-threshold selection (Restaurant)") {
		t.Errorf("output %q lacks the Restaurant Table 2", stdout)
	}
	if strings.Contains(stdout, "(Product)") || strings.Contains(stdout, "Figure") {
		t.Errorf("output %q holds experiments other than table2a", stdout)
	}
	if !strings.Contains(stdout, "done in") {
		t.Errorf("output %q lacks the closing line", stdout)
	}
}
