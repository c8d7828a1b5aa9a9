package sketch

import (
	"testing"

	"ntpddos/internal/rng"
)

// zipfStream feeds n draws from a Zipf-distributed key universe into both a
// sketch and its exact twin — the shape real victim/amplifier streams have
// (a few heavy hitters over a long tail).
func zipfStream(src *rng.Source, universe uint64, n int, add func(key uint64, count int64)) {
	z := src.Zipf(1.2, universe)
	for i := 0; i < n; i++ {
		add(z.Uint64(), 1+int64(src.IntN(20)))
	}
}

// plantedStream interleaves h heavy keys (large planted counts) with a long
// light tail — the adversarial-ish shape SpaceSaving's guarantee is stated
// for.
func plantedStream(src *rng.Source, heavy, tail int, add func(key uint64, n int64)) {
	for i := 0; i < heavy; i++ {
		// Heavy keys live in a distinct range and get 5k–15k total count,
		// spread over several additions.
		key := uint64(1_000_000 + i)
		remaining := int64(5_000 + src.IntN(10_000))
		for remaining > 0 {
			n := int64(1 + src.IntN(500))
			if n > remaining {
				n = remaining
			}
			add(key, n)
			remaining -= n
		}
	}
	for i := 0; i < tail; i++ {
		add(uint64(src.IntN(200_000)), 1+int64(src.IntN(3)))
	}
}

// TestSpaceSavingGuaranteedRecovery asserts the paper-stated property: when
// the summary's own guarantee predicate holds for the top n, the reported
// top-n key set is exactly the true top-n from the exact twin.
func TestSpaceSavingGuaranteedRecovery(t *testing.T) {
	const (
		heavy = 40
		k     = 512
	)
	for trial := 0; trial < 10; trial++ {
		src := rng.New(uint64(31 + trial))
		ss := NewSpaceSaving(k)
		exact := NewExactTopK()
		plantedStream(src, heavy, 40_000, func(key uint64, n int64) {
			ss.Add(key, n)
			exact.Add(key, n)
		})
		if !ss.GuaranteedTop(heavy) {
			t.Fatalf("trial %d: guarantee predicate does not hold for top %d (k=%d too small?)",
				trial, heavy, k)
		}
		want := make(map[uint64]int64, heavy)
		for _, e := range exact.Top(heavy) {
			want[e.Key] = e.Count
		}
		for _, e := range ss.Top(heavy) {
			truth, ok := want[e.Key]
			if !ok {
				t.Fatalf("trial %d: summary top-%d contains %d, not in true top set", trial, heavy, e.Key)
			}
			if e.Count < truth {
				t.Fatalf("trial %d: key %d estimate %d under true count %d", trial, e.Key, e.Count, truth)
			}
			if e.Count-e.Err > truth {
				t.Fatalf("trial %d: key %d guaranteed count %d above true count %d",
					trial, e.Key, e.Count-e.Err, truth)
			}
		}
	}
}

// TestSpaceSavingOverestimateOnly checks that for every monitored key the
// summary never under-counts — the invariant the detector's byte rankings
// rely on.
func TestSpaceSavingOverestimateOnly(t *testing.T) {
	src := rng.New(77)
	ss := NewSpaceSaving(64)
	exact := NewExactTopK()
	zipfStream(src, 5_000, 20_000, func(key uint64, n int64) {
		ss.Add(key, n)
		exact.Add(key, n)
	})
	for _, e := range ss.Top(ss.Len()) {
		if truth := exact.counts.Estimate(e.Key); e.Count < truth {
			t.Fatalf("key %d: summary %d < true %d", e.Key, e.Count, truth)
		}
	}
}

// TestSpaceSavingDeterministicTies pins the deterministic tie-break: with
// every count equal, eviction order and reported order depend only on keys.
func TestSpaceSavingDeterministicTies(t *testing.T) {
	build := func() []TopEntry {
		ss := NewSpaceSaving(4)
		for _, k := range []uint64{9, 3, 7, 1, 5, 8} {
			ss.Add(k, 1)
		}
		return ss.Top(4)
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSpaceSavingGuaranteeBoundary(t *testing.T) {
	ss := NewSpaceSaving(4)
	ss.Add(1, 10)
	ss.Add(2, 5)
	// Fewer entries than n: the boundary is unobserved, no guarantee.
	if ss.GuaranteedTop(2) {
		t.Fatal("guarantee claimed with no entry beyond the boundary")
	}
	ss.Add(3, 1)
	if !ss.GuaranteedTop(2) {
		t.Fatal("exact summary (no evictions) must guarantee its top 2")
	}
}

func TestSpaceSavingCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpaceSaving(0) did not panic")
		}
	}()
	NewSpaceSaving(0)
}
