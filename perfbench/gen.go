package main

import (
	"hash/fnv"
	"math"
	"math/rand"

	bvc "relaxedbvc"
)

// warmupSeed seeds the set-up's warm-up request, so set-up does the
// same work whatever the run's seed; index -1 is never a timed request.
const warmupSeed = 0

// requestRNG derives the input stream of one request from (seed, input
// family, request index), so a request's inputs never depend on how
// many requests ran before it or on the machine's speed.
func requestRNG(seed int64, family string, index int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(family)) //nolint:errcheck // hash writes cannot fail
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(index)*0xbf58476d1ce4e5b9
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// unitVec draws a vector uniformly from [-5, 5]^d.
func unitVec(rng *rand.Rand, d int) bvc.Vector {
	v := make(bvc.Vector, d)
	for j := range v {
		v[j] = (rng.Float64() - 0.5) * 10
	}
	return v
}

// logUniform draws 10^u with u uniform in [lo, hi].
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Pow(10, lo+(hi-lo)*rng.Float64())
}
