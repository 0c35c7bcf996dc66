package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := DefaultConfig(PB)
	orig.Pattern = "complement"
	orig.Load = 0.7
	orig.MaxHold = 2
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Mode":"P-B"`) && !strings.Contains(string(data), `"Mode": "P-B"`) {
		t.Fatalf("mode not serialized as label: %s", data)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("round trip changed config:\n%+v\n%+v", back, orig)
	}
}

func TestConfigJSONNumericMode(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"Mode":3,"Load":0.5}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != PB || cfg.Load != 0.5 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if err := json.Unmarshal([]byte(`{"Mode":9}`), &cfg); err == nil {
		t.Fatal("out-of-range numeric mode accepted")
	}
	if err := json.Unmarshal([]byte(`{"Mode":"bogus"}`), &cfg); err == nil {
		t.Fatal("bad mode label accepted")
	}
}

func TestConfigJSONPartialOverridesDefaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, []byte(`{"Pattern":"butterfly","Load":0.9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path, DefaultConfig(PNB))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pattern != "butterfly" || cfg.Load != 0.9 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.Boards != 8 || cfg.Mode != PNB {
		t.Fatalf("defaults not preserved: %+v", cfg)
	}
}

func TestSaveAndLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	orig := DefaultConfig(NPB)
	orig.Seed = 77
	if err := SaveConfig(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(path, DefaultConfig(NPNB))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("save/load changed config")
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := LoadConfig("/nonexistent/cfg.json", DefaultConfig(NPNB)); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestConfigSchemaVersion(t *testing.T) {
	data, err := json.Marshal(DefaultConfig(PB))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema_version":1`) {
		t.Fatalf("encoded config carries no schema_version tag: %s", data)
	}
	// Documents without a tag (the pre-versioning form) and with any
	// supported version all decode; future versions are rejected with a
	// structured per-field error.
	for _, doc := range []string{`{"Load":0.5}`, `{"schema_version":1,"Load":0.5}`, `{"schema_version":2,"Load":0.5}`} {
		if _, err := ParseConfig([]byte(doc)); err != nil {
			t.Errorf("ParseConfig(%s) = %v, want nil", doc, err)
		}
	}
	for _, doc := range []string{`{"schema_version":3}`, `{"schema_version":0}`, `{"schema_version":-3}`} {
		_, err := ParseConfig([]byte(doc))
		if err == nil {
			t.Errorf("ParseConfig(%s) accepted an unsupported schema version", doc)
			continue
		}
		var verr ValidationError
		if !errors.As(err, &verr) || len(verr) != 1 || verr[0].Field != "schema_version" {
			t.Errorf("ParseConfig(%s) error = %v, want a schema_version ValidationError", doc, err)
		}
	}
}

func TestConfigCanonicalJSONStable(t *testing.T) {
	cfg := DefaultConfig(PB)
	a, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Canonical form round-trips to itself.
	back, err := ParseConfig(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical JSON not a fixed point:\n%s\n%s", a, b)
	}
	// An empty fault spec and a nil one canonicalize identically.
	withEmpty := cfg
	withEmpty.Faults = &fault.Spec{}
	c, err := withEmpty.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatalf("empty fault spec changed the canonical form:\n%s\n%s", a, c)
	}
}

func TestConfigDigest(t *testing.T) {
	cfg := DefaultConfig(PB)
	d := cfg.Digest()
	if len(d) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", d)
	}
	if cfg.Digest() != d {
		t.Fatal("digest not stable across calls")
	}
	// A document from before the intra-run worker count was removed
	// still carries "Workers": it parses and validates, and it is the
	// same simulation as the document without the key.
	fast := fastConfig(PB)
	doc, err := fast.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	old, err := ParseConfig(bytes.Replace(doc, []byte("{"), []byte(`{"Workers":4,`), 1))
	if err != nil {
		t.Fatal(err)
	}
	if oldDoc, err := old.CanonicalJSON(); err != nil || !bytes.Equal(oldDoc, doc) || old.Digest() != fast.Digest() {
		t.Errorf("a document carrying Workers canonicalizes to %s (%v), want %s", oldDoc, err, doc)
	}
	if a, b := mustRun(t, fast), mustRun(t, old); !reflect.DeepEqual(a, b) {
		t.Errorf("a document carrying Workers ran differently:\n%+v\nvs\n%+v", b, a)
	}
	// Anything that changes the simulation changes the digest.
	for name, mutate := range map[string]func(*Config){
		"Mode":    func(c *Config) { c.Mode = NPNB },
		"Load":    func(c *Config) { c.Load = 0.25 },
		"Seed":    func(c *Config) { c.Seed++ },
		"Window":  func(c *Config) { c.Window *= 2 },
		"Pattern": func(c *Config) { c.Pattern = "complement" },
	} {
		m := cfg
		mutate(&m)
		if m.Digest() == d {
			t.Errorf("mutating %s did not change the digest", name)
		}
	}
}

func TestParseConfigValidation(t *testing.T) {
	_, err := ParseConfig([]byte(`{"Load":-1,"Boards":0}`))
	var ve ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("error = %v, want ValidationError", err)
	}
	fields := strings.Join(ve.Fields(), ",")
	for _, want := range []string{"Load", "Topology"} {
		if !strings.Contains(fields, want) {
			t.Errorf("validation fields %q missing %s", fields, want)
		}
	}
	// All failures are collected in one pass, not just the first.
	if len(ve) < 2 {
		t.Errorf("ValidationError has %d entries, want >= 2: %v", len(ve), ve)
	}
	if _, err := ParseConfig([]byte(`{"Pattern":"bogus"}`)); err == nil ||
		!strings.Contains(err.Error(), "Pattern") {
		t.Errorf("bad pattern error = %v, want a Pattern field error", err)
	}
	if _, err := ParseConfig([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestWorkersValidation: Workers, the removed intra-run worker count,
// is no longer validated. A document carrying it at any value, the once
// rejected -1 included, parses and validates to the config of the
// document without it.
func TestWorkersValidation(t *testing.T) {
	want, err := ParseConfig([]byte(`{"schema_version":1,"Mode":"NP-B","Load":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"-1", "0", "8"} {
		got, err := ParseConfig([]byte(`{"schema_version":1,"Mode":"NP-B","Load":0.3,"Workers":` + w + `}`))
		if err != nil {
			t.Errorf("Workers=%s: %v", w, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%s parsed to %+v, want %+v", w, got, want)
		}
	}
}
