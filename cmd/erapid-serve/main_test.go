package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the erapid-serve command:
// with ERAPID_SERVE_TEST_MAIN=1 it runs main() on its arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_SERVE_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// serveCmd returns the erapid-serve command with args, killed if it
// is still running after 10 s.
func serveCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ERAPID_SERVE_TEST_MAIN=1")
	return cmd
}

// TestHelpGolden pins the -h flag listing byte-for-byte, minus its
// first line, which carries the binary's path.
func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, err := serveCmd(t, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("erapid-serve -h: %v\n%s", err, out)
	}
	if _, got, _ := bytes.Cut(out, []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("erapid-serve -h output differs from testdata/help.golden:\n%s", got)
	}
}

// TestNegativeFlagsExit2: a negative -workers, -queue, -job-timeout or
// -drain exits 2 with a message naming the flag, before the server listens.
func TestNegativeFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-queue", "-5"},
		{"-job-timeout", "-1s"},
		{"-drain", "-1s"},
	} {
		cmd := serveCmd(t, append([]string{"-addr", "127.0.0.1:0", "-log=false"}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("erapid-serve %v: %v, want exit status 2", args, err)
		}
		if !bytes.Contains(stderr.Bytes(), []byte(args[0]+" ")) {
			t.Errorf("erapid-serve %v: stderr does not name %s:\n%s", args, args[0], stderr.Bytes())
		}
	}
}
