package main

import (
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
	for _, seeds := range []string{"0", "-3"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-seeds", seeds, "-profile", "acyclic"}, &stdout, &stderr); code != 2 {
			t.Errorf("-seeds %s: exit %d, want status 2", seeds, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-seeds must be >= 1") {
			t.Errorf("-seeds %s: stdout %q, stderr %q", seeds, stdout.String(), stderr.String())
		}
	}
}

// -replay 0 replays seed 0, the seed -start 0 sweeps and WriteRepro
// names, rather than falling through to a sweep.
func TestReplaySeedZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-replay", "0", "-profile", "acyclic"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if out := stdout.String(); !strings.HasPrefix(out, "seed=0 profile=acyclic ") || strings.Contains(out, "campaign:") {
		t.Errorf("-replay 0 printed %q, want the seed-0 plan's report", out)
	}
}
