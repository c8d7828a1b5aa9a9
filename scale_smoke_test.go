package ntpddos

import (
	"testing"
	"time"

	"ntpddos/internal/scenario"
)

// TestScaleWorldSmoke builds a ~100k-host world and simulates one quiet
// month end-to-end: the large-population smoke the CI race job runs,
// exercising the calendar queue, datagram pool recycling and batched
// delivery at full population size — under -race, where a recycled-buffer
// aliasing bug would surface as a data race or a corrupted digest long
// before the golden corpus caught it. Skipped in -short mode to keep the
// bench smoke cheap.
func TestScaleWorldSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host smoke world skipped in -short mode")
	}
	// Scale divides the ~5.4M global population (1.4M monlist amplifiers +
	// 4M version responders); 54 leaves ~100k fabric hosts.
	cfg := scenario.DefaultConfig()
	cfg.Scale = 54
	cfg.End = time.Date(2013, 10, 1, 0, 0, 0, 0, time.UTC)
	cfg.FabricAttackDivisor = 4
	res := scenario.Run(cfg)
	if n := res.World.Net.NumHosts(); n < 70000 {
		t.Fatalf("100k-host world registered only %d hosts", n)
	}
}
