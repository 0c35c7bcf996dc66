package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMain lets the test binary stand in for the erapid command: with
// ERAPID_TEST_MAIN=1 it runs main() on its arguments instead of the
// tests (see erapidCmd).
func TestMain(m *testing.M) {
	if os.Getenv("ERAPID_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// erapidCmd returns the erapid command with args, killed if it is still
// running after 60 s.
func erapidCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ERAPID_TEST_MAIN=1")
	return cmd
}

// runCLI executes the erapid command with args and returns its stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := erapidCmd(t, args...)
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
	if err := core.SaveConfig(path("e.json"), core.DefaultConfig(core.PB)); err != nil {
		t.Fatal(err)
	}
	if d, e := read("d.json"), read("e.json"); !bytes.Equal(d, e) {
		t.Errorf("flag-only config changed:\n%s\nvs\n%s", d, e)
	}

	// A file from before the intra-run worker count was removed still
	// carries "Workers"; it runs exactly as the file without the key.
	old := bytes.Replace(read("a.json"), []byte("{"), []byte(`{"Workers":4,`), 1)
	if err := os.WriteFile(path("w.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	short := []string{"-warmup", "500", "-measure", "500"}
	if a, w := runCLI(t, append([]string{"-config", path("a.json")}, short...)...),
		runCLI(t, append([]string{"-config", path("w.json")}, short...)...); !bytes.Equal(a, w) {
		t.Errorf("a config carrying Workers ran differently:\n%s\nvs\n%s", w, a)
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

// TestHelpGolden pins the -h flag listing of erapid and of each
// subcommand byte-for-byte, minus its first line: erapid's synopsis, or
// a subcommand's "Usage of erapid <name>:".
func TestHelpGolden(t *testing.T) {
	for _, sub := range []string{"", "sweep", "compare", "tables", "verify"} {
		name, golden := "erapid", "testdata/help.golden"
		if sub != "" {
			name, golden = sub, "testdata/help-"+sub+".golden"
		}
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			out, err := erapidCmd(t, strings.Fields(sub+" -h")...).CombinedOutput()
			if err != nil {
				t.Fatalf("erapid %s -h: %v\n%s", sub, err, out)
			}
			if _, got, _ := bytes.Cut(out, []byte("\n")); !bytes.Equal(got, want) {
				t.Errorf("erapid %s -h output differs from %s:\n%s", sub, golden, got)
			}
		})
	}
}

// TestGolden pins the stdout of Table 1 and of the Fig. 3 design-space
// time series byte-for-byte.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/table1.golden", []string{"tables"}},
		{"testdata/designspace.golden", []string{"tables", "-designspace"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := runCLI(t, tc.args...); !bytes.Equal(got, want) {
			t.Errorf("erapid %v output differs from %s:\n%s", tc.args, tc.golden, got)
		}
	}
}

// TestBadInputExit2: a leftover argument, an unknown subcommand, a
// negative worker count, a sweep point that cannot run and an invalid
// config to -dump-config are bad input: each exits 2 with a message
// naming it, before anything runs or is written.
func TestBadInputExit2(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "dump.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-boards", "4", "-nodes", "4", "complement", "-pattern", "butterfly"}, `unexpected argument "complement"`},
		{[]string{"tables", "extra"}, `unexpected argument "extra"`},
		{[]string{"verify", "-quick", "extra"}, `unexpected argument "extra"`},
		{[]string{"swep"}, "sweep|compare|tables|verify"},
		{[]string{"serve"}, "erapid-serve"},
		{[]string{"compare", "-workers", "-3", "-quick", "-boards", "4", "-nodes", "4", "-scenarios", "headline", "-policies", "paper"}, "-workers -3"},
		{[]string{"verify", "-workers", "-2", "-quick"}, "-workers -2"},
		{[]string{"sweep", "-workers", "-1", "-quick", "-boards", "4", "-nodes", "4", "-patterns", "uniform", "-modes", "P-B", "-loads", "0.3"}, "-workers -1"},
		{[]string{"sweep", "-patterns", "uniform,complemnt", "-modes", "P-B,NP-NB", "-loads", "0.3,0.5", "-quick", "-boards", "4", "-nodes", "4"}, `patterns[1]: P-B/complemnt`},
		{[]string{"sweep", "-loads", "0.3,1.5", "-quick", "-boards", "4", "-nodes", "4", "-patterns", "uniform", "-modes", "P-B"}, `bad load "1.5"`},
		{[]string{"-load", "-1", "-dump-config", dump}, "Load: need Load > 0"},
		{[]string{"-boards", "1", "-dump-config", dump}, "boards = 1, need >= 2"},
	} {
		cmd := erapidCmd(t, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("erapid %v: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "running") || stdout.Len() > 0 {
			t.Errorf("erapid %v: stderr does not name %q, or something ran:\n%s%s", tc.args, tc.want, stdout.Bytes(), stderr.Bytes())
		}
		if _, err := os.Stat(dump); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("erapid %v: wrote %s (stat: %v)", tc.args, dump, err)
		}
	}
}
