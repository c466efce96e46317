// Package rng provides reproducible pseudo-random number generation for
// parallel Monte Carlo sampling.
//
// Each walker in a parallel run owns an independent stream. Streams are
// derived from a single master seed either by splitmix64 expansion (cheap,
// statistically independent for practical purposes) or by the xoshiro256**
// long-jump function (2^192 guaranteed non-overlapping subsequences). The
// generators here are deterministic across platforms, which the test suite
// and the benchmark harness rely on: every experiment in EXPERIMENTS.md is
// regenerated bit-for-bit from its seed.
package rng

import (
	"math"
	"math/bits"

	"deepthermo/internal/cacheline"
)

// Source is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; give each goroutine its own Source (see NewStreams).
//
// A Source is exactly one cache line: every draw rewrites its state, so two
// walkers' Sources in one line would bounce that line between their cores
// on every Monte Carlo step.
type Source struct {
	s         [4]uint64
	haveSpare bool
	spare     float64
	_         [cacheline.Size - 48]byte
}

// splitmix64 advances the state and returns the next output. It is used to
// seed xoshiro256** state from a single 64-bit seed, as recommended by the
// xoshiro authors, so that closely related seeds yield unrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via splitmix64 expansion.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// The all-zero state is invalid for xoshiro; splitmix64 cannot produce
	// four consecutive zeros, but guard anyway for defence in depth.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (src *Source) Uint64() uint64 {
	s := &src.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Lemire's
// multiply-shift rejection method avoids modulo bias without division on
// the fast path.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := src.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. The extra deviate is cached so alternate calls are nearly free.
func (src *Source) NormFloat64() float64 {
	if src.haveSpare {
		src.haveSpare = false
		return src.spare
	}
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		src.spare = v * f
		src.haveSpare = true
		return u * f
	}
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (src *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	src.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (src *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, src.Intn(i+1))
	}
}

// State is the full serializable state of a Source. It is the unit of
// RNG persistence in walker checkpoints (package wanglandau / rewl): a
// restored Source continues the stream bit-identically, including the
// cached Marsaglia spare deviate, so a checkpointed run replays exactly.
type State struct {
	S         [4]uint64
	HaveSpare bool
	Spare     float64
}

// State captures the generator's current state.
func (src *Source) State() State {
	return State{S: src.s, HaveSpare: src.haveSpare, Spare: src.spare}
}

// Restore sets the generator to a previously captured state in place, so
// holders of the *Source pointer observe the restored stream.
func (src *Source) Restore(st State) {
	src.s = st.S
	src.haveSpare = st.HaveSpare
	src.spare = st.Spare
}

// FromState reconstructs a Source from a captured state.
func FromState(st State) *Source {
	src := &Source{}
	src.Restore(st)
	return src
}

// Jump advances the stream by 2^128 steps. 2^128 non-overlapping
// subsequences of length 2^128 each can be generated from one seed by
// repeated jumps; NewStreams uses this to hand each parallel walker a
// provably disjoint stream.
func (src *Source) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	src.jumpWith(jump)
}

// LongJump advances the stream by 2^192 steps, for partitioning work across
// independent jobs each of which then uses Jump internally.
func (src *Source) LongJump() {
	jump := [4]uint64{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}
	src.jumpWith(jump)
}

func (src *Source) jumpWith(jump [4]uint64) {
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= src.s[0]
				s1 ^= src.s[1]
				s2 ^= src.s[2]
				s3 ^= src.s[3]
			}
			src.Uint64()
		}
	}
	src.s = [4]uint64{s0, s1, s2, s3}
}

// NewStreams returns n independent Sources derived from seed. Stream i is
// the master stream advanced by i jumps of 2^128, so streams never overlap
// regardless of how many numbers each walker draws.
func NewStreams(seed uint64, n int) []*Source {
	if n < 0 {
		panic("rng: NewStreams with negative n")
	}
	streams := make([]*Source, n)
	master := New(seed)
	for i := range streams {
		cp := *master
		streams[i] = &cp
		master.Jump()
	}
	return streams
}
