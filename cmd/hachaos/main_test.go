package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fragdb/internal/chaoskit"
)

// Every profile -profile accepts is named in its usage text and in the
// unknown-profile error, and the removed parallel and batching profiles
// are rejected.
func TestProfileFlagNamesEveryProfile(t *testing.T) {
	usage := profileUsage()
	names := []string{"readlocks", "acyclic", "unrestricted", "moving", "bank",
		"compaction", "placement"}
	for _, p := range chaoskit.AllProfiles() {
		names = append(names, p.Name)
	}
	for _, name := range names {
		if _, ok := chaoskit.ProfileByName(name); !ok {
			t.Errorf("ProfileByName(%q) rejected", name)
		}
		if !strings.Contains(usage, name) {
			t.Errorf("usage %q does not name profile %q", usage, name)
		}
		if got, err := selectProfiles(name); err != nil || len(got) != 1 || got[0].Name != name {
			t.Errorf("selectProfiles(%q) = %v, %v", name, got, err)
		}
	}
	for _, removed := range []string{"parallel", "batching"} {
		_, err := selectProfiles(removed)
		if err == nil {
			t.Fatalf("-profile %s accepted", removed)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-profile error %q does not list %q", err, name)
			}
		}
	}
}

// A sweep of no seeds audits nothing: -seeds below 1 is a usage error
// (exit 2), not a vacuous "all invariants held".
func TestZeroSeedsRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hachaos")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, seeds := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-seeds", seeds, "-profile", "acyclic")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-seeds %s: exit %v, want status 2", seeds, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-seeds must be >= 1") {
			t.Errorf("-seeds %s: stdout %q, stderr %q", seeds, stdout.String(), stderr.String())
		}
	}
}
