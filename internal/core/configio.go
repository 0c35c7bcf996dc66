package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion is the newest version of the canonical Config JSON
// schema this build reads. Encoded documents carry it as
// "schema_version"; the decoder accepts documents without one (the
// pre-versioning form, identical to version 1) and rejects versions
// newer than it knows, so a saved or submitted config can never be
// silently misread by an older binary.
//
// Version 2 adds the "tiers" array for hierarchical topologies. Flat
// (single-SRS) configurations — including single-tier v2 documents,
// which fold onto the flat fields at decode time — still encode as
// version 1, so their canonical bytes, digests, service cache keys and
// golden files are unchanged from earlier builds.
const SchemaVersion = 2

// SchemaVersion returns the version the configuration encodes as: 2
// only when the document actually uses v2 (a multi-tier hierarchy).
func (c Config) SchemaVersion() int {
	if c.MultiTier() {
		return 2
	}
	return 1
}

// MarshalJSON implements json.Marshaler: the canonical schema with a
// schema_version tag, the cluster count C = 1 (kept so canonical bytes
// and digests match documents written when it was a field) and the Mode
// stored as its paper label ("P-B").
func (c Config) MarshalJSON() ([]byte, error) {
	type bare Config // avoid recursion
	return json.Marshal(struct {
		SchemaVersion int `json:"schema_version"`
		Clusters      int
		bare
		Mode string
	}{c.SchemaVersion(), 1, bare(c), c.Mode.String()})
}

// UnmarshalJSON implements json.Unmarshaler, accepting both the numeric
// mode form and the paper label, and documents with or without a
// schema_version tag.
func (c *Config) UnmarshalJSON(data []byte) error {
	type bare Config
	var aux struct {
		SchemaVersion *int `json:"schema_version"`
		bare
		Mode json.RawMessage
	}
	// Seed with the current values so partial documents act as overrides
	// over defaults.
	aux.bare = bare(*c)
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	if aux.SchemaVersion != nil {
		if v := *aux.SchemaVersion; v < 1 || v > SchemaVersion {
			return ValidationError{{
				Field: "schema_version",
				Msg:   fmt.Sprintf("version %d not supported (this build reads versions 1..%d)", v, SchemaVersion),
			}}
		}
	}
	// Two keys have one legal value and are not fields: "Clusters"
	// (C = 1) and a tier's "Wavelengths" (0 or Boards−1, fixed by the
	// SRS RWA). A document may spell either; any other value is an error.
	var fixed struct {
		C     *int                        `json:"Clusters"`
		Tiers []struct{ Wavelengths int } `json:"tiers"`
	}
	if err := json.Unmarshal(data, &fixed); err != nil {
		return err
	}
	var errs ValidationError
	if fixed.C != nil && *fixed.C != 1 {
		errs = append(errs, FieldError{Field: "Clusters",
			Msg: fmt.Sprintf("the simulator assembles one cluster (C=1) as in the paper's evaluation; got C=%d", *fixed.C)})
	}
	for i, t := range fixed.Tiers {
		if b := aux.Tiers[i].Boards; t.Wavelengths != 0 && (b < 1 || t.Wavelengths != b-1) {
			errs = append(errs, FieldError{Field: fmt.Sprintf("Tiers[%d].Wavelengths", i),
				Msg: fmt.Sprintf("the SRS RWA fixes usable wavelengths at Boards-1 = %d; got %d (use 0 for derived)", b-1, t.Wavelengths)})
		}
	}
	if len(errs) > 0 {
		return errs
	}
	*c = Config(aux.bare).tiersApplied()
	if len(aux.Mode) == 0 {
		return nil
	}
	var label string
	if err := json.Unmarshal(aux.Mode, &label); err == nil {
		m, err := ParseMode(label)
		if err != nil {
			return err
		}
		c.Mode = m
		return nil
	}
	var num uint8
	if err := json.Unmarshal(aux.Mode, &num); err != nil {
		return fmt.Errorf("core: mode must be a label or number: %w", err)
	}
	if num > uint8(PB) {
		return fmt.Errorf("core: mode %d out of range", num)
	}
	c.Mode = Mode(num)
	return nil
}

// normalized returns a copy with the encoding-irrelevant degrees of
// freedom collapsed: an empty fault spec behaves bit-identically to a
// nil one, the paper-baseline policy spec bit-identically to no policy
// at all, a single-tier Tiers array bit-identically to the flat v1
// fields, PowerLevels 0 to the paper's 3, and BurstDuty 0 to its 0.5
// default (or to 0 when BurstLength is 0 and the duty is unused) — so
// the canonical form drops each. The engine runs only normalized
// configs.
func (c Config) normalized() Config {
	c = c.tiersApplied()
	if c.Faults != nil && c.Faults.Empty() {
		c.Faults = nil
	}
	c.Policy = c.Policy.Canonical()
	if c.PowerLevels == 0 {
		c.PowerLevels = 3
	}
	switch {
	case c.BurstLength == 0:
		c.BurstDuty = 0
	case c.BurstDuty == 0:
		c.BurstDuty = 0.5
	}
	return c
}

// CanonicalJSON returns the configuration in its canonical serialized
// form: the versioned schema, compact, fields in declaration order,
// equivalent optional states collapsed. Two configurations describing
// the same simulation encode to the same bytes.
func (c Config) CanonicalJSON() ([]byte, error) {
	return json.Marshal(c.normalized())
}

// Digest returns a stable content address for the simulation this
// configuration describes: the hex SHA-256 of the canonical JSON. Two
// configs with equal digests produce byte-identical Results; the
// service layer uses this as its result-cache key.
func (c Config) Digest() string {
	data, err := c.CanonicalJSON()
	if err != nil {
		// Config marshaling is total over the struct's field types; an
		// error here means the type itself changed incompatibly.
		panic(fmt.Sprintf("core: config digest: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ParseConfig decodes a JSON config document as an overlay over the
// paper's P-B defaults (missing fields keep their DefaultConfig
// values) and validates it. The returned error is a ValidationError
// when the document decodes but describes an invalid simulation.
func ParseConfig(data []byte) (Config, error) {
	cfg := DefaultConfig(PB)
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("core: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// LoadConfig reads a Config from a JSON file. Missing fields keep the
// values of the provided defaults.
func LoadConfig(path string, defaults Config) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return defaults, err
	}
	cfg := defaults
	if err := json.Unmarshal(data, &cfg); err != nil {
		return defaults, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	return cfg, nil
}

// SaveConfig writes a Config as indented JSON, in the resolved form
// LoadConfig will hand back: the flat topology fields mirror a tier
// array, so a saved file reloads and re-saves to the same bytes.
func SaveConfig(path string, cfg Config) error {
	data, err := json.MarshalIndent(cfg.tiersApplied(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
