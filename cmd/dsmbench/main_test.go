package main

import (
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
