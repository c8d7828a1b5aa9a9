// Package sketch provides the deterministic, seedable probabilistic data
// structures behind the streaming detection plane (internal/detect): a dense
// mergeable HyperLogLog and a SpaceSaving top-k summary.
//
// The paper's analyses are post-hoc passes over complete captures; a
// collector watching the February 2014 flood online cannot afford that. Each
// structure here answers one of the paper's questions in bounded memory:
// "who is being reflected at?" and "which amplifiers dominate?"
// (SpaceSaving over victim and amplifier bytes), "how many distinct
// scanners?" (HyperLogLog, §5's unique-scanner counts).
//
// Every structure is seeded explicitly and never reads the wall clock, so a
// detector built on them is as reproducible as the simulation itself. Each
// has an exact-counting twin (ExactDistinct, ExactTopK) used by the property
// tests to assert the published error bounds rather than assume them.
package sketch

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer. All
// sketches derive their hash positions from it, keyed by the structure's
// seed, so two sketches with the same seed agree bit-for-bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
