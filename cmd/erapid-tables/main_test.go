package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the erapid-tables command:
// with ERAPID_TABLES_TEST_MAIN=1 it runs main() on its arguments instead
// of the tests (see runCLI).
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_TABLES_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI executes the erapid-tables command with args and returns its
// stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ERAPID_TABLES_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("erapid-tables %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestGolden pins the stdout of Table 1 and of the Fig. 3 design-space
// time series byte-for-byte.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/table1.golden", nil},
		{"testdata/designspace.golden", []string{"-designspace"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := runCLI(t, tc.args...); !bytes.Equal(got, want) {
			t.Errorf("erapid-tables %v output differs from %s:\n%s", tc.args, tc.golden, got)
		}
	}
}
