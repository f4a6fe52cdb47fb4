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
