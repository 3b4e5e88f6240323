package main

import (
	"slices"
	"testing"
)

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
