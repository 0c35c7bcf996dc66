package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the erapid-sweep command:
// with ERAPID_SWEEP_TEST_MAIN=1 it runs main() on its arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_SWEEP_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestHelpGolden pins the -h flag listing byte-for-byte, minus its
// first line, against the `erapid sweep -h` golden.
func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile("../erapid/testdata/help-sweep.golden")
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
		t.Errorf("erapid-sweep -h output differs from help-sweep.golden:\n%s", got)
	}
}
