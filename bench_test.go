package ntpddos

// The benchmark harness regenerates every table and figure of the paper's
// evaluation:
//
//	go test -bench=. -benchmem
//
// BenchmarkExperiments has one sub-benchmark per table of All(), named by
// its registry id. The six-month simulation is run once per process (at
// scale 1000, or 4000 under -short) and each sub-benchmark measures the
// analysis step that derives its table from the captured data, logging the
// rendered rows under -v. Ablation benchmarks at the bottom re-run reduced
// simulations or alternative definitions for the design choices DESIGN.md
// calls out.

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/scan"
	"ntpddos/internal/scenario"
	"ntpddos/internal/stats"
)

var (
	benchOnce sync.Once
	benchSim  *Simulation
)

func benchSimulation(b *testing.B) *Simulation {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 1000
		if testing.Short() {
			cfg.Scale = 4000
		}
		fmt.Fprintf(os.Stderr, "bench: running the 2013-09..2014-05 simulation once at scale 1/%d...\n", cfg.Scale)
		start := time.Now()
		benchSim = Run(cfg)
		fmt.Fprintf(os.Stderr, "bench: simulation done in %v\n", time.Since(start))
	})
	return benchSim
}

// BenchmarkExperiments measures regenerating each table of All() from the
// shared simulation and logs the rendered table.
func BenchmarkExperiments(b *testing.B) {
	s := benchSimulation(b)
	for _, e := range experiments {
		if e.extra != nil {
			continue
		}
		b.Run(e.id, func(b *testing.B) {
			var tab *Table
			for i := 0; i < b.N; i++ {
				tab = e.table(s)
			}
			b.StopTimer()
			b.Log("\n" + tab.Render())
		})
	}
}

// ---- Ablation benchmarks (design choices from DESIGN.md §6) ----

// BenchmarkAblationBAFDefinition compares the paper's on-wire BAF (84-byte
// framing floor in the denominator, framing in the numerator) against the
// Rossow-style UDP payload ratio. The paper's footnote 3 notes the
// definitions diverge; this quantifies by how much on the same capture.
func BenchmarkAblationBAFDefinition(b *testing.B) {
	s := benchSimulation(b)
	last := s.Results().MonlistAnalyses[len(s.Results().MonlistAnalyses)-1]
	var onWire, payload []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onWire = onWire[:0]
		payload = payload[:0]
		for _, r := range last.Amps {
			onWire = append(onWire, r.BAF)
			// Approximate payload ratio: strip per-packet framing (66B of
			// IP/UDP/Ethernet overhead) from the response and compare to
			// the probe's 8-byte payload.
			perPacketOverhead := float64(r.Packets) * float64(packet.MinOnWire-8-packet.IPv4HeaderLen-packet.UDPHeaderLen)
			_ = perPacketOverhead
			pl := float64(r.Bytes) - float64(r.Packets)*(packet.IPv4HeaderLen+packet.UDPHeaderLen+packet.EthernetHeaderLen+packet.EthernetFCSLen+packet.EthernetPreambleGap)
			if pl < 0 {
				pl = 0
			}
			payload = append(payload, pl/8)
		}
	}
	b.StopTimer()
	b.Logf("on-wire BAF median %.1f vs UDP-payload ratio median %.1f (n=%d)",
		stats.Quantile(onWire, 0.5), stats.Quantile(payload, 0.5), len(onWire))
}

// BenchmarkAblationScanOrder measures the zmap-style permutation against a
// linear sweep: same coverage, but the permutation costs a multiply per
// address and never hammers one destination network.
func BenchmarkAblationScanOrder(b *testing.B) {
	const space = 1 << 20
	b.Run("permutation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := scan.NewPermutation(space, 42)
			n := 0
			for {
				if _, ok := p.Next(); !ok {
					break
				}
				n++
			}
			if n != space {
				b.Fatal("incomplete coverage")
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for a := 0; a < space; a++ {
				n++
			}
			if n != space {
				b.Fatal("incomplete coverage")
			}
		}
	})
}

// BenchmarkAblationVictimThresholds sweeps the §4.2 classifier thresholds
// and reports how the victim census responds — the sensitivity analysis
// behind "while this may seem like a low threshold...".
func BenchmarkAblationVictimThresholds(b *testing.B) {
	s := benchSimulation(b)
	last := s.Results().MonlistAnalyses[len(s.Results().MonlistAnalyses)-1]
	counts := map[string]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, minCount := range map[string]uint32{"count>=1": 1, "count>=3": 3, "count>=10": 10} {
			n := 0
			for _, r := range last.Amps {
				if r.Table == nil {
					continue
				}
				for _, e := range r.Table.Entries {
					if e.Mode >= ntp.ModeControl && e.Count >= minCount && e.AvgInterval <= 3600 {
						n++
					}
				}
			}
			counts[name] = n
		}
	}
	b.StopTimer()
	b.Logf("victim observations by threshold: %v (paper uses count>=3)", counts)
}

// BenchmarkAblationTableCap replays table reconstruction under smaller
// monitor-table caps, quantifying how the 600-entry limit drives the §4.2
// under-sampling of victims.
func BenchmarkAblationTableCap(b *testing.B) {
	s := benchSimulation(b)
	analyses := s.Results().MonlistAnalyses
	results := map[int]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cap := range []int{50, 200, 600} {
			victims := netaddr.NewSet(0)
			for _, a := range analyses {
				for _, r := range a.Amps {
					if r.Table == nil {
						continue
					}
					entries := r.Table.Entries
					if len(entries) > cap {
						entries = entries[:cap]
					}
					view := &core.TableView{Entries: entries}
					vs, _, _ := core.ExtractVictims(view, r.Addr, s.Results().World.ONPAddr, a.Date)
					for _, v := range vs {
						victims.Add(v.Victim)
					}
				}
			}
			results[cap] = victims.Len()
		}
	}
	b.StopTimer()
	b.Logf("distinct victims by table cap: %v (ntpd's cap is 600)", results)
}

// BenchmarkMetricsOverhead runs the same reduced world with and without a
// live metrics registry attached, measuring the wall-time cost of full
// instrumentation (every fabric packet, scheduler event, daemon query and
// tap observation counted). The contract is <5%: hot paths are one atomic
// add, pre-resolved at wiring time, and nothing touches RNG or vtime state.
func BenchmarkMetricsOverhead(b *testing.B) {
	if testing.Short() {
		b.Skip("simulation skipped in -short mode")
	}
	run := func(b *testing.B, instrument bool) {
		for i := 0; i < b.N; i++ {
			cfg := scenario.TestConfig()
			cfg.Scale = 6000
			cfg.NumASes = 150
			cfg.FabricAttackDivisor = 8
			if instrument {
				cfg.Metrics = metrics.NewRegistry()
			}
			scenario.Run(cfg)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkTimeSyncWorld measures the cost of the disciplined-client plane
// on a reduced world: baseline with the plane off, with a 16-client fleet
// polling its dedicated stratum-2 servers, and with the time-integrity
// attack plane armed against half the fleet. The deltas are the plane's
// whole bill — mode-3/4 traffic, the clock filter, and (attacked) the
// interceptors and spoofed bursts — since the classic tables are pinned
// byte-identical either way by TestTimeSyncPlaneDoesNotPerturbSimulation.
func BenchmarkTimeSyncWorld(b *testing.B) {
	if testing.Short() {
		b.Skip("simulation skipped in -short mode")
	}
	run := func(b *testing.B, clients int, share float64) {
		for i := 0; i < b.N; i++ {
			cfg := scenario.TestConfig()
			cfg.Scale = 6000
			cfg.NumASes = 150
			cfg.FabricAttackDivisor = 8
			cfg.TimeSync.Clients = clients
			cfg.TimeAttackShare = share
			scenario.Run(cfg)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0, 0) })
	b.Run("fleet16", func(b *testing.B) { run(b, 16, 0) })
	b.Run("attacked", func(b *testing.B) { run(b, 16, 0.5) })
}

// BenchmarkAblationRemediation re-runs a reduced world with the §6
// community response disabled: the counterfactual Internet where nobody
// patches. Expensive (one extra simulation), hence the small scale.
func BenchmarkAblationRemediation(b *testing.B) {
	if testing.Short() {
		b.Skip("counterfactual simulation skipped in -short mode")
	}
	var withPool, withoutPool int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := scenario.TestConfig()
		cfg.FabricAttackDivisor = 40 // thin the fabric: pools are the point here
		base := scenario.Run(cfg)
		cfg.NoRemediation = true
		counterfactual := scenario.Run(cfg)
		withPool = base.MonlistPools[len(base.MonlistPools)-1].Len()
		withoutPool = counterfactual.MonlistPools[len(counterfactual.MonlistPools)-1].Len()
	}
	b.StopTimer()
	b.Logf("final monlist pool: %d with remediation vs %d without (first sample ~%d)",
		withPool, withoutPool, 1405186/scenario.TestConfig().Scale)
}

// BenchmarkSweepReplicates measures the sweep engine fanning replicate
// simulations across the worker pool — the PR's acceptance path: on a
// 4-core runner the 4-worker pool is expected >= 3x faster than serial
// (per-run digests byte-identical either way, pinned by
// TestSweepWorkersByteIdentical). On a single core the two variants
// converge, which is itself the honest number. Each replicate is the
// truncated-window world from the golden corpus, so one iteration costs
// seconds, not minutes.
func BenchmarkSweepReplicates(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep simulations skipped in -short mode")
	}
	cfg := QuickConfig()
	cfg.Scale = 4000
	cfg.End = time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC)
	jobs := SweepReplicates("bench", cfg, 1, 2, 3, 4)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := Sweep(jobs, SweepOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if failed := m.Failed(); len(failed) > 0 {
					b.Fatalf("replicates failed: %+v", failed)
				}
			}
		})
	}
}
