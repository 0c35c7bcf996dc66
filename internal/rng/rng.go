// Package rng provides small, fast, deterministic pseudo-random number
// generators for simulation. Every stochastic component of a simulation
// owns its own stream, derived from (master seed, component id), so that
// adding or removing one component never perturbs the random sequence
// seen by any other — a prerequisite for controlled experiments.
//
// The generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend. Only stdlib is used.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the splitmix64 state and returns the next value.
// It is used both as a seed expander and as a cheap hash.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary list of 64-bit values into one, for deriving
// per-component seeds from (master seed, ids...).
func Mix(vs ...uint64) uint64 {
	state := uint64(0x2545f4914f6cdd1d)
	for _, v := range vs {
		state ^= v
		_ = SplitMix64(&state)
	}
	return SplitMix64(&state)
}

// Stream is a xoshiro256** generator. The zero value is invalid; use New.
type Stream struct {
	s [4]uint64
}

// New returns a stream seeded from the given seed via splitmix64.
func New(seed uint64) *Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		st.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not start in the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return &st
}

// Derive returns a new independent stream for a subcomponent, identified
// by ids, without advancing s.
func (s *Stream) Derive(ids ...uint64) *Stream {
	return New(Mix(append([]uint64{s.s[0], s.s[3]}, ids...)...))
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	r := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return r
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's method with a
// rejection step to remove modulo bias. It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Threshold returns the integer cut of a Bernoulli(p) draw for p in
// (0, 1): Float64() < p exactly when Uint64()>>11 < Threshold(p). The
// product p·2^53 is exact, and an integer lies below a real exactly when
// it lies below the real's ceiling.
func Threshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// Until draws up to n values and stops at the first whose top 53 bits
// fall below thr, keeping the generator state in registers: with
// thr = Threshold(p) it is a run of Bernoulli(p) draws up to the first
// hit. It returns the number drawn and whether the last one hit.
func (s *Stream) Until(thr, n uint64) (k uint64, hit bool) {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for k < n {
		r := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		k++
		if r>>11 < thr {
			hit = true
			break
		}
	}
	s.s = [4]uint64{s0, s1, s2, s3}
	return k, hit
}

// Perm fills dst with a uniform random permutation of 0..len(dst)-1
// (Fisher–Yates).
func (s *Stream) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
