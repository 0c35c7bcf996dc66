package topology

import (
	"math"
	"testing"
)

func TestNewSRSValidation(t *testing.T) {
	cases := []struct {
		b, d int
		ok   bool
	}{
		{4, 4, true},
		{8, 8, true},
		{2, 1, true},
		{1, 4, false},
		{4, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		top, err := NewSRS(c.b, c.d)
		if (err == nil) != c.ok {
			t.Errorf("NewSRS(%d,%d) error = %v, want ok=%v", c.b, c.d, err, c.ok)
		}
		if err == nil && top.TotalNodes() != c.b*c.d {
			t.Errorf("NewSRS(%d,%d).TotalNodes() = %d, want %d", c.b, c.d, top.TotalNodes(), c.b*c.d)
		}
	}
}

func TestHierSingleTier(t *testing.T) {
	h, err := NewHier(Tier{Boards: 8, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if h.Tiers() != 1 || h.Racks() != 1 || h.TotalNodes() != 64 {
		t.Fatalf("single-tier hier: tiers=%d racks=%d nodes=%d", h.Tiers(), h.Racks(), h.TotalNodes())
	}
	if h.IntraFraction() != 1 {
		t.Fatalf("IntraFraction = %v, want 1 for flat system", h.IntraFraction())
	}
	if s := h.String(); s != "R(1,8,8)" {
		t.Fatalf("String() = %q", s)
	}
}

func TestHierTwoTier(t *testing.T) {
	h, err := NewHier(Tier{Boards: 8, Nodes: 8}, Tier{Boards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if h.Tiers() != 2 || h.Racks() != 16 || h.RackNodes() != 64 || h.TotalNodes() != 1024 {
		t.Fatalf("hier: tiers=%d racks=%d rackNodes=%d nodes=%d",
			h.Tiers(), h.Racks(), h.RackNodes(), h.TotalNodes())
	}
	// The derived tier-1 Nodes field is filled in.
	if h.Tier(1).Nodes != 64 {
		t.Fatalf("Tier(1).Nodes = %d, want 64", h.Tier(1).Nodes)
	}
	// Level 1 simulates racks-as-boards: 16 boards × 64 endpoints, 15
	// usable wavelengths under the same w(s,d) = (s-d) mod B rule.
	l1 := h.Level(1)
	if l1.Boards() != 16 || l1.NodesPerBoard() != 64 || l1.Wavelengths() != 15 {
		t.Fatalf("level 1 = %s (W=%d)", l1, l1.Wavelengths())
	}
	if w := l1.Wavelength(3, 1); w != 2 {
		t.Fatalf("tier-1 Wavelength(3,1) = %d, want 2", w)
	}
	// Intra fraction: (64-1)/(1024-1).
	want := 63.0 / 1023.0
	if math.Abs(h.IntraFraction()-want) > 1e-15 {
		t.Fatalf("IntraFraction = %v, want %v", h.IntraFraction(), want)
	}
	if h.Rack(0) != 0 || h.Rack(63) != 0 || h.Rack(64) != 1 || h.Rack(1023) != 15 {
		t.Fatal("Rack() addressing wrong")
	}
	if s := h.String(); s != "H(16×R(1,8,8))" {
		t.Fatalf("String() = %q", s)
	}
}

func TestHierValidation(t *testing.T) {
	if _, err := NewHier(); err == nil {
		t.Error("NewHier() with no tiers should fail")
	}
	if _, err := NewHier(Tier{4, 4}, Tier{4, 0}, Tier{4, 0}); err == nil {
		t.Error("3 tiers should exceed MaxTiers")
	}
	if _, err := NewHier(Tier{1, 4}); err == nil {
		t.Error("tier-0 boards < 2 should fail")
	}
	if _, err := NewHier(Tier{4, 4}, Tier{1, 0}); err == nil {
		t.Error("tier-1 racks < 2 should fail")
	}
	// Explicit tier-1 Nodes must match the derived rack size.
	if _, err := NewHier(Tier{4, 4}, Tier{8, 16}); err != nil {
		t.Errorf("matching explicit tier-1 nodes: %v", err)
	}
	if _, err := NewHier(Tier{4, 4}, Tier{8, 17}); err == nil {
		t.Error("mismatched tier-1 nodes should fail")
	}
}
