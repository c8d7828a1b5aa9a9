package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ntpddos/internal/detect"
	"ntpddos/internal/scenario"
)

// smoke is a world small enough for tests that still takes every path the
// real workloads take: an ONP survey, the sync plane under attack and the
// detector. The §7 site networks, their attacks and the extreme megas have
// absolute sizes, so a short window without the megas, not a large Scale,
// is what keeps it near a second.
var smoke = workload{
	name: "smoke",
	config: func(seed uint64) scenario.Config {
		c := scenario.TestConfig()
		c.Seed = seed
		c.Scale = 20000
		c.ExtremeMegas = 0
		c.Start = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
		c.End = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)
		c.TimeSync.Clients = 4
		c.TimeAttackShare = 0.5
		d := detect.DefaultConfig()
		c.Detector = &d
		return c
	},
}

// smokePin runs the smoke world once and returns its digest.
func smokePin(t *testing.T) string {
	t.Helper()
	o, err := runWorld(smoke.config(defaultSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	return o.digest
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	wl := smoke
	wl.pin = smokePin(t)
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		res := bench(wl, defaultSeed, time.Millisecond, tc.traced, t.TempDir())
		if !res.Correct || res.Failed != 0 || res.Attempted < minReps {
			t.Fatalf("traced=%v: %+v", tc.traced, res)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("traced=%v: emitted %d metrics, BENCHMARK.json names %d", tc.traced, len(res.Metrics), len(tc.want))
		}
		for _, w := range tc.want {
			got, ok := res.Metrics[w.Name]
			switch {
			case !ok:
				t.Errorf("traced=%v: %s not emitted", tc.traced, w.Name)
			case got.Unit != w.Unit:
				t.Errorf("traced=%v: %s in %q, BENCHMARK.json says %q", tc.traced, w.Name, got.Unit, w.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("traced=%v: %s = %v", tc.traced, w.Name, got.Value)
			}
		}
		if !tc.traced {
			continue
		}
		var sum float64
		for name, m := range res.Metrics {
			if strings.HasPrefix(name, "cpu.") && m.Unit == "%" {
				sum += m.Value
			}
		}
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("cpu.* shares sum to %v%%, want 100%%", sum)
		}
	}
}

func TestWrongPinFailsEveryRun(t *testing.T) {
	wl := smoke
	wl.pin = strings.Repeat("0", 64)
	res := bench(wl, defaultSeed, time.Millisecond, false, t.TempDir())
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted || len(res.Metrics) != 0 {
		t.Fatalf("a wrong pin gave %+v, want every run failed and no metrics", res)
	}
}

func TestPinAppliesOnlyAtTheDefaultSeed(t *testing.T) {
	wl := smoke
	wl.pin = strings.Repeat("0", 64)
	if got := pinFor(wl, defaultSeed+1); got != "" {
		t.Errorf("seed %d is checked against pin %q", defaultSeed+1, got)
	}
	for _, w := range workloads {
		if len(w.pin) != 64 {
			t.Errorf("%s: pin %q is not a sha256 digest", w.name, w.pin)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "ntpddos/internal/netsim.(*Network).getDatagram", "ntpddos/internal/ntpd.(*Server).sendMonlist"}, "netsim"},
		{[]string{"ntpddos/internal/netaddr.Set.Add", "ntpddos/internal/ispview.(*View).Observe"}, "ispview"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "ntpddos/internal/ntp.AppendMonlistResponse"}, "gc"},
		{[]string{"ntpddos/internal/vtime/schedtest.Run"}, "vtime"},
		{[]string{"ntpddos.(*Simulation).Figure1"}, "report"},
		{[]string{"runtime.schedule", "runtime.mcall"}, "other"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}
