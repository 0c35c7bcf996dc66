// Package topology describes E-RAPID systems and their static routing
// and wavelength assignment (RWA).
//
// An E-RAPID network is a 3-tuple (C, B, D): C clusters, B boards per
// cluster, D nodes per board (paper Sec. 2). Boards within a cluster are
// fully connected through the Scalable Remote Optical Super-Highway
// (SRS): board s reaches board d on wavelength
//
//	w(s,d) = (s - d) mod B,  s ≠ d
//
// which reproduces the paper's piecewise definition (λ_{B-(d-s)} for
// d > s and λ_{s-d} for s > d). Wavelength 0 would map a board onto
// itself and is therefore never statically assigned; intra-board traffic
// stays in the electrical domain.
package topology

import "fmt"

// Topology is an immutable description of a one-cluster E-RAPID system
// (C = 1, as in the paper's evaluation).
type Topology struct {
	boards int // boards per cluster
	nodes  int // nodes per board
}

// NewSRS builds the one-cluster SRS topology: B boards × D nodes per
// board, fully connected through the optical super-highway. A
// hierarchy's racks and its inter-rack fabric are each one SRS.
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

// Boards returns B, the boards per cluster.
func (t *Topology) Boards() int { return t.boards }

// NodesPerBoard returns D.
func (t *Topology) NodesPerBoard() int { return t.nodes }

// TotalNodes returns B*D.
func (t *Topology) TotalNodes() int { return t.boards * t.nodes }

// Wavelengths returns the number of usable inter-board wavelengths per
// cluster: λ_1 .. λ_{B-1} (λ_0 would be a board-to-self channel).
func (t *Topology) Wavelengths() int { return t.boards - 1 }

// String implements fmt.Stringer using the paper's R(C,B,D) notation.
func (t *Topology) String() string {
	return fmt.Sprintf("R(1,%d,%d)", t.boards, t.nodes)
}

// Board returns the board hosting global node id n.
func (t *Topology) Board(n int) int {
	t.checkNode(n)
	return n / t.nodes
}

// Local returns the node's index within its board.
func (t *Topology) Local(n int) int {
	t.checkNode(n)
	return n % t.nodes
}

// NodeID returns the global node id for (board, local).
func (t *Topology) NodeID(board, local int) int {
	if board < 0 || board >= t.boards || local < 0 || local >= t.nodes {
		panic(fmt.Sprintf("topology: NodeID(%d,%d) out of range for %s", board, local, t))
	}
	return board*t.nodes + local
}

func (t *Topology) checkNode(n int) {
	if n < 0 || n >= t.TotalNodes() {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, t))
	}
}

// Wavelength returns the statically assigned wavelength for inter-board
// communication from board s to board d within a cluster. It panics for
// s == d (intra-board traffic is electrical, not optical).
func (t *Topology) Wavelength(s, d int) int {
	t.checkBoard(s)
	t.checkBoard(d)
	if s == d {
		panic(fmt.Sprintf("topology: Wavelength(%d,%d): no optical channel to self", s, d))
	}
	return ((s-d)%t.boards + t.boards) % t.boards
}

// StaticOwner returns the board that statically owns the incoming channel
// (d, w): the unique source board s with Wavelength(s, d) == w. It panics
// for w == 0 or w out of range.
func (t *Topology) StaticOwner(d, w int) int {
	t.checkBoard(d)
	if w <= 0 || w >= t.boards {
		panic(fmt.Sprintf("topology: StaticOwner(d=%d, w=%d): wavelength out of 1..%d", d, w, t.boards-1))
	}
	return (d + w) % t.boards
}

func (t *Topology) checkBoard(b int) {
	if b < 0 || b >= t.boards {
		panic(fmt.Sprintf("topology: board %d out of range for %s", b, t))
	}
}
