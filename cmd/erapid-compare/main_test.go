package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"

	erapid "repro"
)

// TestMain lets the test binary stand in for the erapid-compare
// command: with ERAPID_COMPARE_TEST_MAIN=1 it runs main() on its
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_COMPARE_TEST_MAIN") == "1" {
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
	cmd.Env = append(os.Environ(), "ERAPID_COMPARE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("erapid-compare -h: %v\n%s", err, out)
	}
	if _, got, _ := bytes.Cut(out, []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("erapid-compare -h output differs from testdata/help.golden:\n%s", got)
	}
}

func TestPickScenarios(t *testing.T) {
	all := Scenarios(erapid.DefaultConfig(erapid.PB))
	got, err := pickScenarios(all, []string{"faulted", "headline"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "faulted" || got[1].Name != "headline" {
		t.Errorf("pickScenarios(faulted, headline) = %v", got)
	}
	// "-scenarios ," names nothing: an error, not an empty comparison.
	for _, names := range [][]string{splitList(","), {"nope"}} {
		if got, err := pickScenarios(all, names); err == nil {
			t.Errorf("pickScenarios(%q) = %v, want an error", names, got)
		}
	}
}
