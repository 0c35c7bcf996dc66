package topology

import "fmt"

// This file holds the composable tier abstraction: a single SRS is the
// tier-0 building block, and a Hier stacks SRS levels so R racks of
// E-RAPID boards compose under a second-tier inter-rack WDM fabric
// (PAPERS.md arXiv:1901.06450). Each level of the hierarchy is itself
// an ordinary *Topology, so the RWA rules (Wavelength, StaticOwner,
// ChannelID) apply unchanged per tier.

// NewSRS builds the single-cluster SRS topology that serves as the tier
// building block: B boards × D nodes per board, fully connected through
// the optical super-highway.
func NewSRS(boards, nodes int) (*Topology, error) {
	switch {
	case boards < 2:
		return nil, fmt.Errorf("topology: boards = %d, need >= 2 (SRS requires at least two boards)", boards)
	case nodes < 1:
		return nil, fmt.Errorf("topology: nodes per board = %d, need >= 1", nodes)
	}
	return &Topology{boards: boards, nodes: nodes}, nil
}

// MustNewSRS is NewSRS for static configurations known to be valid.
func MustNewSRS(boards, nodes int) *Topology {
	t, err := NewSRS(boards, nodes)
	if err != nil {
		panic(err)
	}
	return t
}

// Tier describes one level of a hierarchical system: how many switching
// elements the level has (boards for tier 0, racks for tier 1) and how
// many endpoints attach to each element (nodes per board for tier 0;
// derived for tier 1, where a whole rack is the endpoint group).
type Tier struct {
	// Boards is the number of elements joined by this tier's SRS:
	// E-RAPID boards at tier 0, whole racks at tier 1.
	Boards int
	// Nodes is the number of endpoints per element. At tier 0 this is
	// the paper's D. At tier 1 it is implied — every rack contributes
	// Boards×Nodes of tier 0 — and must be 0 or exactly that product.
	Nodes int
}

// MaxTiers is the deepest hierarchy the simulator assembles today: a
// rack tier of SRS boards under one inter-rack fabric tier.
const MaxTiers = 2

// Hier is an immutable hierarchical topology: tier 0 is an SRS rack
// replicated Racks() times; tier 1 (when present) is an SRS joining the
// racks, with each rack appearing as one "board" whose "nodes" are the
// rack's full endpoint population.
type Hier struct {
	tiers  []Tier
	levels []*Topology
}

// NewHier validates and builds a hierarchy from per-tier shapes. One
// tier describes a flat SRS; two tiers describe racks under an
// inter-rack fabric. tiers[1].Nodes may be 0 (derived) or must equal
// tiers[0].Boards × tiers[0].Nodes.
func NewHier(tiers ...Tier) (*Hier, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("topology: hierarchy needs at least one tier")
	}
	if len(tiers) > MaxTiers {
		return nil, fmt.Errorf("topology: %d tiers requested, the simulator assembles at most %d", len(tiers), MaxTiers)
	}
	t0, err := NewSRS(tiers[0].Boards, tiers[0].Nodes)
	if err != nil {
		return nil, fmt.Errorf("topology: tier 0: %w", err)
	}
	h := &Hier{tiers: append([]Tier(nil), tiers...), levels: []*Topology{t0}}
	if len(tiers) == 2 {
		rack := t0.TotalNodes()
		if n := tiers[1].Nodes; n != 0 && n != rack {
			return nil, fmt.Errorf("topology: tier 1: nodes per rack = %d, want 0 (derived) or %d (= tier-0 boards × nodes)", n, rack)
		}
		t1, err := NewSRS(tiers[1].Boards, rack)
		if err != nil {
			return nil, fmt.Errorf("topology: tier 1: %w", err)
		}
		h.tiers[1].Nodes = rack
		h.levels = append(h.levels, t1)
	}
	return h, nil
}

// Tiers returns the number of levels in the hierarchy (1 or 2).
func (h *Hier) Tiers() int { return len(h.tiers) }

// Tier returns the shape of level i with the derived fields filled in.
func (h *Hier) Tier(i int) Tier { return h.tiers[i] }

// Level returns the SRS topology simulated at level i: level 0 is one
// rack (B boards × D nodes); level 1 is the inter-rack fabric (R racks
// as boards, B×D endpoints each).
func (h *Hier) Level(i int) *Topology { return h.levels[i] }

// Racks returns how many tier-0 racks the hierarchy instantiates.
func (h *Hier) Racks() int {
	if len(h.tiers) == 2 {
		return h.tiers[1].Boards
	}
	return 1
}

// RackNodes returns the endpoint count of one rack (tier-0 B×D).
func (h *Hier) RackNodes() int { return h.levels[0].TotalNodes() }

// TotalNodes returns the endpoint count of the whole hierarchy.
func (h *Hier) TotalNodes() int { return h.Racks() * h.RackNodes() }

// Rack returns the rack hosting global node id n.
func (h *Hier) Rack(n int) int {
	if n < 0 || n >= h.TotalNodes() {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, h))
	}
	return n / h.RackNodes()
}

// IntraFraction returns the fraction of a uniform random workload that
// stays within the source's rack: (B·D − 1)/(N − 1). The complement is
// the inter-rack share carried by tier 1. For a flat system this is 1.
func (h *Hier) IntraFraction() float64 {
	n := h.TotalNodes()
	if n <= 1 {
		return 1
	}
	return float64(h.RackNodes()-1) / float64(n-1)
}

// String renders the hierarchy: "R(1,8,8)" for one tier, or
// "H(16×R(1,8,8))" for 16 racks under an inter-rack fabric.
func (h *Hier) String() string {
	if len(h.tiers) == 1 {
		return h.levels[0].String()
	}
	return fmt.Sprintf("H(%d×%s)", h.Racks(), h.levels[0])
}
