package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
)

// TestParseSize: the two dataset sizes parse; a misspelling is an error
// naming it rather than a silent run of the default dataset.
func TestParseSize(t *testing.T) {
	for _, s := range []apps.Size{apps.SizeSmall, apps.SizeDefault} {
		if got, err := parseSize(string(s)); got != s || err != nil {
			t.Errorf("parseSize(%q) = %q, %v", s, got, err)
		}
	}
	for _, s := range []string{"bogus", "smal", "Small", ""} {
		if _, err := parseSize(s); err == nil || !strings.Contains(err.Error(), `"`+s+`"`) {
			t.Errorf("parseSize(%q): err = %v, want an error naming it", s, err)
		}
	}
}

// TestParseAppsAndProcs: names are trimmed, and an unknown application or a
// processor count with no paper layout is an error naming the value, so
// dsmbench exits before running anything instead of failing mid-table.
func TestParseAppsAndProcs(t *testing.T) {
	if got, err := parseApps("SOR, LU"); err != nil || !slices.Equal(got, []string{"SOR", "LU"}) {
		t.Errorf(`parseApps("SOR, LU") = %q, %v`, got, err)
	}
	if _, err := parseApps("SOR,Bogus"); err == nil || !strings.Contains(err.Error(), `"Bogus"`) {
		t.Errorf("parseApps with an unknown app: err = %v, want an error naming it", err)
	}
	if got, err := parseProcs("1, 4,8"); err != nil || !slices.Equal(got, []int{1, 4, 8}) {
		t.Errorf(`parseProcs("1, 4,8") = %v, %v`, got, err)
	}
	for _, s := range []string{"4,3", "x"} {
		if _, err := parseProcs(s); err == nil || !strings.Contains(err.Error(), "bad -procs") {
			t.Errorf("parseProcs(%q): err = %v, want a -procs error", s, err)
		}
	}
	if _, err := parseProcs("3"); err == nil || !strings.Contains(err.Error(), "3 processors") {
		t.Errorf("parseProcs(3): err = %v, want it to name the count", err)
	}
}
