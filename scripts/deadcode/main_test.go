package main

import (
	"path/filepath"
	"strings"
	"testing"

	"xsearch/internal/raceflag"
)

// TestFindings runs the checker on one small module per case under
// testdata: a planted finding of each kind is reported, and each shape the
// checker must see through is not.
func TestFindings(t *testing.T) {
	for _, tc := range []struct{ tree, want string }{
		{"orphan", "internal/lib/lib.go:8: Orphan: exported, referenced by no non-test file\n"},
		{"constparam", "internal/lib/lib.go:7: scale: parameter factor is 2 at every call site (2)\n"},
		{"scope", "cmd/tool/main.go:6: pad: parameter width is 8 at every call site (2)\n"}, // not scripts/
		{"iface", ""},     // a method called through a module interface
		{"stringer", ""},  // a String method fmt calls through fmt.Stringer
		{"funcvalue", ""}, // a function also taken as a value
		{"ellipsis", ""},  // a variadic parameter, one call spreading a slice
		{"buildtag", ""},  // a file the build tags exclude
	} {
		t.Run(tc.tree, func(t *testing.T) {
			var out strings.Builder
			n, err := check(filepath.Join("testdata", tc.tree), nil, &out)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != tc.want || n != strings.Count(tc.want, "\n") {
				t.Fatalf("check = %d findings:\n%s\nwant:\n%s", n, out.String(), tc.want)
			}
		})
	}
}

// TestAllowList: an allowed finding is not reported, an entry that matches
// no finding is, and every entry of the repository's list has a reason.
func TestAllowList(t *testing.T) {
	var out strings.Builder
	n, err := check("testdata/orphan", map[string]string{
		"internal/lib.Orphan": "kept",
		"internal/lib.Gone":   "stale",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "scripts/deadcode/main.go:1: internal/lib.Gone: allow-list entry matches no finding\n"
	if n != 1 || out.String() != want {
		t.Fatalf("check = %d findings:\n%s\nwant:\n%s", n, out.String(), want)
	}
	for key, reason := range allow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", key)
		}
	}
}

// TestRepositoryHasNoFinding holds the gate in the tier-1 tests: the
// module and bench/ carry no dead generality beyond the allow-list.
func TestRepositoryHasNoFinding(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("type-checking the module and the standard library from source is slow under -race")
	}
	var out strings.Builder
	n, err := check("../..", allow, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("%d finding(s); delete the code, or allow it with a reason:\n%s", n, out.String())
	}
}
