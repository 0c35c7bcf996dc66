package main

import (
	"reflect"
	"testing"

	erapid "repro"
)

func TestParseLoads(t *testing.T) {
	got, err := parseLoads(" 0.3, 0.7 ,1e-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.3, 0.7, 0.1}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseLoads = %v, want %v", got, want)
	}

	got, err = parseLoads("")
	if err != nil {
		t.Fatal(err)
	}
	if want := erapid.PaperLoads(); !reflect.DeepEqual(got, want) {
		t.Errorf("parseLoads(\"\") = %v, want the paper loads %v", got, want)
	}

	// Every token must parse whole: trailing garbage is an error, not a
	// silently truncated load.
	for _, bad := range []string{"0.7x", "0.3,0.7x", "x", "0.3;0.7", "0.5 0.6"} {
		if ls, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) = %v, want an error", bad, ls)
		}
	}
}
