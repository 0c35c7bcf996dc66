package core

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzConfigIO throws arbitrary bytes at the Config JSON layer. Any
// document the decoder accepts (as an overlay over defaults, the
// LoadConfig contract) must re-encode to a canonical form that decodes
// back to the same configuration — a saved config can never drift or
// become unreadable.
func FuzzConfigIO(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Mode":"P-B","Pattern":"complement","Load":0.7}`))
	f.Add([]byte(`{"Mode":3,"Seed":42,"Window":500}`))
	f.Add([]byte(`{"Boards":4,"NodesPerBoard":4,"PowerLevels":5,"PortRadius":1}`))
	f.Add([]byte(`{"BurstLength":300,"BurstDuty":0.25,"InjectionRate":0.01}`))
	f.Add([]byte(`{"Faults":{"events":[{"at":100,"kind":"laser-kill","board":2,"wavelength":3,"dest":5}]}}`))
	f.Add([]byte(`{"Faults":{"seed":9,"ctrl_drop_rate":0.05,"laser_degrade_rate":0.001,"degrade_cycles":65}}`))
	f.Add([]byte(`{"Policy":{"name":"ewma","alpha":0.2}}`))
	f.Add([]byte(`{"Policy":{"name":"greedy-off","off_max":0.8},"Mode":"P-B"}`))
	f.Add([]byte(`{"Policy":{"name":"paper"}}`))
	f.Add([]byte(`{"Policy":{"name":"oracle-static","headroom":1.5}}`))
	f.Add([]byte(`{"schema_version":1}`))
	f.Add([]byte(`{"schema_version":1,"Mode":"NP-B","Load":0.3,"Workers":4}`))
	f.Add([]byte(`{"schema_version":2,"Mode":"P-B"}`))
	f.Add([]byte(`{"schema_version":0}`))
	f.Add([]byte(`{"schema_version":-1,"Window":100}`))
	f.Add([]byte(`{"schema_version":2,"tiers":[{"Boards":8,"NodesPerBoard":8},{"Boards":16}]}`))
	f.Add([]byte(`{"schema_version":2,"tiers":[{"Boards":4,"NodesPerBoard":4}],"Load":0.5}`))
	f.Add([]byte(`{"tiers":[{"Boards":4,"NodesPerBoard":2,"Window":500},{"Boards":4,"Window":4000,"Policy":{"name":"ewma","alpha":0.2}}]}`))
	f.Add([]byte(`{"tiers":[{"Boards":8},{"Boards":3,"NodesPerBoard":64}],"Mode":"NP-B"}`))
	f.Add([]byte(`{"tiers":[{"Boards":2,"NodesPerBoard":1},{"Boards":2},{"Boards":2}]}`))
	f.Add([]byte(`{"Clusters":1,"tiers":[{"Boards":4,"NodesPerBoard":2,"Wavelengths":3},{"Boards":3,"Wavelengths":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig(PB)
		if err := json.Unmarshal(data, &cfg); err != nil {
			return
		}
		// encoding/json leaves an explicit "events":[] as an empty non-nil
		// slice that omitempty then drops; canonicalize the same way
		// fault.ParseSpec does before demanding an exact round trip.
		if cfg.Faults != nil && len(cfg.Faults.Events) == 0 {
			cfg.Faults.Events = nil
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config failed to marshal: %v\nconfig: %+v", err, cfg)
		}
		back := DefaultConfig(NPNB) // different defaults: the encoding must override every field
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("round trip changed the config:\nfirst:  %+v\nsecond: %+v\nencoding: %s", cfg, back, enc)
		}
	})
}
