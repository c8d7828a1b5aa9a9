package ntpd

import (
	"math"
	"testing"

	"ntpddos/internal/core"
	"ntpddos/internal/rng"
)

func sampleSystems(role Role, n int) map[string]float64 {
	src := rng.New(42)
	counts := make(map[string]float64)
	for i := 0; i < n; i++ {
		p := SampleProfile(src, role)
		counts[p.SystemString]++
	}
	for k := range counts {
		counts[k] = counts[k] / float64(n) * 100
	}
	return counts
}

func TestAllNTPDistributionMatchesTable2(t *testing.T) {
	got := sampleSystems(RoleAllNTP, 100000)
	// The headline Table 2 rows: cisco 48.39, unix 30.64, linux 18.97.
	for system, want := range map[string]float64{"cisco": 48.39, "unix": 30.64, "linux": 18.97} {
		if math.Abs(got[system]-want) > 1.5 {
			t.Fatalf("%s share = %.2f%%, want ≈%.2f%%", system, got[system], want)
		}
	}
}

func TestAmplifierDistributionMatchesTable2(t *testing.T) {
	got := sampleSystems(RoleAmplifier, 100000)
	for system, want := range map[string]float64{"linux": 80.22, "bsd": 11.08, "junos": 3.43} {
		if math.Abs(got[system]-want) > 1.5 {
			t.Fatalf("%s share = %.2f%%, want ≈%.2f%%", system, got[system], want)
		}
	}
}

func TestMegaDistributionMatchesTable2(t *testing.T) {
	got := sampleSystems(RoleMegaAmp, 100000)
	for system, want := range map[string]float64{"linux": 44.18, "junos": 35.85, "bsd": 9.18} {
		if math.Abs(got[system]-want) > 1.5 {
			t.Fatalf("%s share = %.2f%%, want ≈%.2f%%", system, got[system], want)
		}
	}
	if got["cisco"] > 0.5 {
		t.Fatalf("mega pool cisco share = %.2f%%, must be near zero", got["cisco"])
	}
}

func TestCompileYearDistribution(t *testing.T) {
	src := rng.New(7)
	n := 100000
	var before2004, before2012, recent int
	for i := 0; i < n; i++ {
		p := SampleProfile(src, RoleAllNTP)
		if p.CompileYear < 2004 {
			before2004++
		}
		if p.CompileYear < 2012 {
			before2012++
		}
		if p.CompileYear >= 2013 {
			recent++
		}
	}
	// §3.3: 13% before 2004, 59% before 2012, 21% in 2013–2014.
	if f := float64(before2004) / float64(n) * 100; math.Abs(f-13) > 1.5 {
		t.Fatalf("before-2004 share = %.1f%%, want ≈13%%", f)
	}
	if f := float64(before2012) / float64(n) * 100; math.Abs(f-59) > 1.5 {
		t.Fatalf("before-2012 share = %.1f%%, want ≈59%%", f)
	}
	if f := float64(recent) / float64(n) * 100; math.Abs(f-21) > 1.5 {
		t.Fatalf("2013+ share = %.1f%%, want ≈21%%", f)
	}
}

func TestVersionStringCarriesYear(t *testing.T) {
	src := rng.New(9)
	for i := 0; i < 1000; i++ {
		p := SampleProfile(src, RoleAllNTP)
		if got := core.ExtractCompileYear(p.VersionString); got != p.CompileYear {
			t.Fatalf("core.ExtractCompileYear(%q) = %d, want %d", p.VersionString, got, p.CompileYear)
		}
	}
}

func TestExtractCompileYearRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "ntpd", "version 9.9.9", "year 3021"} {
		if core.ExtractCompileYear(s) != 0 {
			t.Fatalf("core.ExtractCompileYear(%q) found a year", s)
		}
	}
}

func TestTTLFingerprints(t *testing.T) {
	cases := map[string]uint8{"linux": 64, "cisco": 255, "windows": 128, "junos": 64, "sun": 255}
	for system, want := range cases {
		if got := ttlFor(system); got != want {
			t.Fatalf("ttlFor(%s) = %d, want %d", system, got, want)
		}
	}
}

func TestSystemCatalogStable(t *testing.T) {
	cat := SystemCatalog()
	if len(cat) != len(weightsMega) || len(cat) != len(weightsAmplifier) || len(cat) != len(weightsAllNTP) {
		t.Fatal("catalogue and weight vectors out of sync")
	}
	cat[0] = "mutated"
	if SystemCatalog()[0] == "mutated" {
		t.Fatal("SystemCatalog returns shared slice")
	}
}
