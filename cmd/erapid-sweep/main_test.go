package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"testing"

	erapid "repro"
)

// TestMain lets the test binary stand in for the erapid-sweep command:
// with ERAPID_SWEEP_TEST_MAIN=1 it runs main() on its arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_SWEEP_TEST_MAIN") == "1" {
		// Drop the -test.* flags so main parses (and -h lists) only the
		// command's own.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestHelpGolden pins the -h flag listing byte-for-byte, minus its
// first line, which carries the binary's path.
func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "ERAPID_SWEEP_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("erapid-sweep -h: %v\n%s", err, out)
	}
	if _, got, _ := bytes.Cut(out, []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("erapid-sweep -h output differs from testdata/help.golden:\n%s", got)
	}
}

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
	// silently truncated load. A load must also be finite and positive.
	for _, bad := range []string{"0.7x", "0.3,0.7x", "x", "0.3;0.7", "0.5 0.6", ",", " , ",
		"NaN", "Inf", "0", "-0.5"} {
		if ls, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) = %v, want an error", bad, ls)
		}
	}
}

// TestPickPatternsEmpty: a -patterns list that names nothing is an
// error, not a sweep of zero simulations.
func TestPickPatternsEmpty(t *testing.T) {
	for _, list := range []string{",", " , ,"} {
		if pats, err := pickPatterns("all", list); err == nil {
			t.Errorf("pickPatterns(%q) = %v, want an error", list, pats)
		}
	}
}
