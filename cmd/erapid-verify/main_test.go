package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the erapid-verify command:
// with ERAPID_VERIFY_TEST_MAIN=1 it runs main() on its arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_VERIFY_TEST_MAIN") == "1" {
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
	cmd.Env = append(os.Environ(), "ERAPID_VERIFY_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("erapid-verify -h: %v\n%s", err, out)
	}
	if _, got, _ := bytes.Cut(out, []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("erapid-verify -h output differs from testdata/help.golden:\n%s", got)
	}
}
