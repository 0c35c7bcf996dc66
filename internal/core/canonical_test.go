package core

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
)

const canonicalGolden = "testdata/canonical.golden"

// canonicalDocs are the config documents whose CanonicalJSON and Digest
// canonical.golden pins: the paper default, a v1 document with faults
// and a policy, a single-tier v2 document (folded onto the flat v1
// form), and a two-tier hierarchy with per-tier windows and policies.
// The last two also carry the schema's fixed-value keys ("Clusters":1,
// a tier's "Wavelengths" at Boards−1), which decode to nothing.
var canonicalDocs = []struct{ name, doc string }{
	{"default-P-B", ``},
	{"v1-faults-policy", `{"schema_version":1,"Mode":"P-NB","Pattern":"complement","Load":0.4,"Seed":5,
		"Faults":{"seed":3,"events":[{"at":20000,"kind":"laser-kill","board":2,"wavelength":3,"dest":5},
		{"at":50000,"kind":"ctrl-outage","duration":2000}],"ctrl_drop_rate":0.01},
		"Policy":{"name":"ewma","alpha":0.3}}`},
	{"v2-single-tier", `{"schema_version":2,"Clusters":1,"Mode":"NP-B","Load":0.3,
		"tiers":[{"Boards":4,"NodesPerBoard":4,"Wavelengths":3,"Window":1000,"Policy":{"name":"greedy-off"}}]}`},
	{"v2-two-tier", `{"schema_version":2,"Clusters":1,"Load":0.2,"Window":1500,
		"tiers":[{"Boards":4,"NodesPerBoard":2,"Wavelengths":3,"Window":500,"Policy":{"name":"ewma","alpha":0.2}},
		{"Boards":3,"NodesPerBoard":8,"Wavelengths":2,"Window":1500,"Policy":{"name":"paper"}}]}`},
}

// TestCanonicalGolden pins the canonical bytes and content digest of
// representative documents: a change to either silently invalidates
// every service cache key and saved result. `go test ./internal/core
// -update` rewrites testdata/canonical.golden along with the cells
// golden.
func TestCanonicalGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range canonicalDocs {
		cfg := DefaultConfig(PB)
		if c.doc != "" {
			var err error
			if cfg, err = ParseConfig([]byte(c.doc)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		data, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b.WriteString(c.name + " " + cfg.Digest() + "\n" + string(data) + "\n")
	}
	got := []byte(b.String())
	if *updateGolden {
		if err := os.WriteFile(canonicalGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(canonicalGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical forms differ from %s:\n got: %s\nwant: %s", canonicalGolden, got, want)
	}
}

// TestEquivalentConfigsCanonicalize: settings the engine runs as one
// simulation share their canonical bytes, so the service cache hits
// across them and a Runner runs both on its one System.
func TestEquivalentConfigsCanonicalize(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b func(*Config)
	}{
		{"PowerLevels 0 = 3", func(c *Config) { c.PowerLevels = 0 }, func(c *Config) { c.PowerLevels = 3 }},
		{"BurstDuty 0 = 0.5", func(c *Config) { c.BurstLength, c.BurstDuty = 200, 0 },
			func(c *Config) { c.BurstLength, c.BurstDuty = 200, 0.5 }},
		{"BurstDuty unused", func(c *Config) { c.BurstDuty = 0.3 }, func(c *Config) { c.BurstDuty = 0 }},
	} {
		a, b := fastConfig(PB), fastConfig(PB)
		c.a(&a)
		c.b(&b)
		if a.Digest() != b.Digest() {
			t.Errorf("%s: digests differ", c.name)
		}
		var r Runner
		ra, err := r.RunContext(context.Background(), a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sys := r.sys
		rb, err := r.RunContext(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.sys != sys {
			t.Errorf("%s: the Runner rebuilt its System instead of resetting it", c.name)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: results differ:\n%+v\n%+v", c.name, ra, rb)
		}
	}
}
