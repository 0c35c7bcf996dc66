package claims

import (
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

func TestAllClaimsHaveIdentity(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range All() {
		if c.ID == "" || c.Paper == "" || c.Run == nil {
			t.Errorf("claim %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim id %q", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d claims; the evaluation section has more", len(seen))
	}
}

func TestTable1ClaimIsStatic(t *testing.T) {
	got, pass, err := checkTable1(Settings{})
	if err != nil || !pass || got == "" {
		t.Fatalf("table1 claim: %q %v %v", got, pass, err)
	}
}

func TestPairRunner(t *testing.T) {
	s := Settings{Quick: true}
	a, b, err := s.pair(traffic.Uniform, core.NPNB, core.NPB, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || b == nil || a.Mode != core.NPNB || b.Mode != core.NPB {
		t.Fatalf("pair returned %v / %v", a, b)
	}
}

// TestKeyClaimsQuick verifies the two headline claims end-to-end with the
// quick schedule (the full set runs in `erapid verify`; these two are
// the paper's core story and must always reproduce).
func TestKeyClaimsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system claim checks skipped in -short")
	}
	s := Settings{Quick: true}
	if got, pass, err := checkComplementGain(s); err != nil || !pass {
		t.Errorf("complement gain claim failed: %q (%v)", got, err)
	}
	if got, pass, err := checkUniformNPBEqual(s); err != nil || !pass {
		t.Errorf("uniform NP-B==NP-NB claim failed: %q (%v)", got, err)
	}
}
