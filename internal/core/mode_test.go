package core

import "testing"

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Mode
		ok   bool
	}{
		{"sync", Sync, true},
		{"async", Async, true},
		{"global_read", NonStrict, true},
		{"nonstrict", 0, false},
		{"Global_Read", 0, false},
		{"", 0, false},
	} {
		got, err := ParseMode(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("ParseMode(%q) error = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && (got != tc.want || got.String() != tc.name) {
			t.Errorf("ParseMode(%q) = %v, want %v round-tripping its name", tc.name, got, tc.want)
		}
	}
}
