package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestMain lets the test binary stand in for the erapid command: with
// ERAPID_TEST_MAIN=1 it runs main() on its arguments instead of the
// tests (see runCLI).
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_TEST_MAIN") == "1" {
		// Drop the -test.* flags so main parses (and -h lists) only the
		// command's own.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI executes the erapid command with args and returns its stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ERAPID_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("erapid %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestConfigFileAndFlags: a dumped config reloads to the same bytes
// (flag defaults must not clobber the file; -tiers included), flags the
// user sets still override the file (-mode included), and without
// -config every flag applies.
func TestConfigFileAndFlags(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	runCLI(t, "-pattern", "complement", "-load", "0.7", "-boards", "4", "-nodes", "4", "-dump-config", path("a.json"))
	runCLI(t, "-config", path("a.json"), "-dump-config", path("b.json"))
	if a, b := read("a.json"), read("b.json"); !bytes.Equal(a, b) {
		t.Errorf("config round trip changed the file:\n%s\nvs\n%s", a, b)
	}

	// -tiers dumps the resolved form: the flat fields mirror tier 0, so
	// the file reloads to itself.
	runCLI(t, "-tiers", "rack=4x4,count=4", "-dump-config", path("t.json"))
	runCLI(t, "-config", path("t.json"), "-dump-config", path("u.json"))
	if a, b := read("t.json"), read("u.json"); !bytes.Equal(a, b) {
		t.Errorf("-tiers config round trip changed the file:\n%s\nvs\n%s", a, b)
	}

	runCLI(t, "-config", path("a.json"), "-load", "0.3", "-mode", "NP-NB", "-dump-config", path("c.json"))
	want, err := core.LoadConfig(path("a.json"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want.Load, want.Mode = 0.3, core.NPNB
	got, err := core.LoadConfig(path("c.json"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-config a.json -load 0.3 -mode NP-NB = %+v, want %+v", got, want)
	}

	runCLI(t, "-dump-config", path("d.json"))
	def := core.DefaultConfig(core.PB)
	def.Workers = 1 // the -workers default
	if err := core.SaveConfig(path("e.json"), def); err != nil {
		t.Fatal(err)
	}
	if d, e := read("d.json"), read("e.json"); !bytes.Equal(d, e) {
		t.Errorf("flag-only config changed:\n%s\nvs\n%s", d, e)
	}
}

// TestTraceJourneyGolden pins the -trace -journey stdout (LS stage
// trace plus packet journeys, both read from telemetry recorders)
// byte-for-byte.
func TestTraceJourneyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trace_journey.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := runCLI(t, "-boards", "4", "-nodes", "4", "-warmup", "2000", "-measure", "2000", "-trace", "-journey", "2")
	if !bytes.Equal(got, want) {
		t.Errorf("-trace -journey output differs from testdata/trace_journey.golden:\n%s", got)
	}
}

// TestHelpGolden pins the -h flag listing byte-for-byte, minus its
// first line, which carries the binary's path.
func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "ERAPID_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("erapid -h: %v\n%s", err, out)
	}
	if _, got, _ := bytes.Cut(out, []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("erapid -h output differs from testdata/help.golden:\n%s", got)
	}
}

func TestParseTiers(t *testing.T) {
	got, err := parseTiers("rack=8x8,count=16")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.TierSpec{{Boards: 8, NodesPerBoard: 8}, {Boards: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTiers = %+v, want %+v", got, want)
	}

	// Key order is free.
	got, err = parseTiers("count=4,rack=2x3")
	if err != nil {
		t.Fatal(err)
	}
	want = []core.TierSpec{{Boards: 2, NodesPerBoard: 3}, {Boards: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTiers = %+v, want %+v", got, want)
	}

	for _, bad := range []string{
		"",
		"rack=8x8",
		"count=16",
		"rack=8,count=16",
		"rack=8x,count=16",
		"rack=ax8,count=16",
		"rack=8x8,count=b",
		"rack=8x8;count=16",
		"rack=8x8,count=16,depth=2",
	} {
		if _, err := parseTiers(bad); err == nil {
			t.Errorf("parseTiers(%q) accepted", bad)
		}
	}
}
