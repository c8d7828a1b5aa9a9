// Package ntpddos reproduces "Taming the 800 Pound Gorilla: The Rise and
// Decline of NTP DDoS Attacks" (Czyz et al., IMC 2014) as a runnable system:
// a calibrated synthetic Internet with vulnerable NTP daemons, attackers,
// Internet-wide scanners, a darknet telescope, regional ISP vantage points
// and a global traffic feed — plus the paper's full analysis pipeline over
// the packets those components exchange.
//
// Quick start:
//
//	sim := ntpddos.Run(ntpddos.DefaultConfig())
//	fmt.Println(sim.Figure1().Render())   // NTP/DNS share of global traffic
//	fmt.Println(sim.Table4().Render())    // top attacked ports
//	for _, tab := range sim.All() {       // every table & figure
//		fmt.Println(tab.Render())
//	}
//
// Populations are scaled down by Config.Scale (default 100) and re-inflated
// in reported counts; per-host behaviour — monitor tables, packet formats,
// amplification factors — is exact at any scale. See DESIGN.md for the
// substitution map from the paper's proprietary datasets to the simulated
// substrate, and EXPERIMENTS.md for paper-versus-measured values.
package ntpddos

import (
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/report"
	"ntpddos/internal/scenario"
)

// Config sizes and seeds a simulation. The zero value is not usable; start
// from DefaultConfig or QuickConfig.
type Config = scenario.Config

// DefaultConfig returns the full-window benchmark configuration
// (Scale 100; several minutes of CPU).
func DefaultConfig() Config { return scenario.DefaultConfig() }

// QuickConfig returns a small configuration that runs the whole window in
// a few seconds — the right choice for tests and exploration.
func QuickConfig() Config { return scenario.TestConfig() }

// Table re-exports the report table type every experiment returns.
type Table = report.Table

// Simulation is a completed run plus cached derived analyses.
type Simulation struct {
	res *scenario.Results

	monlistPopAmps    []core.PopulationRow
	monlistPopVictims []core.PopulationRow
	megaSet           netaddr.Set
	ampUnion          netaddr.Set
}

// Run executes the full September-2013-to-May-2014 timeline and returns the
// analysed simulation.
func Run(cfg Config) *Simulation {
	return NewSimulation(scenario.Run(cfg))
}

// NewSimulation wraps existing scenario results (used when a caller drives
// scenario.Run itself, e.g. to inspect the World mid-flight).
func NewSimulation(res *scenario.Results) *Simulation {
	s := &Simulation{res: res}
	s.monlistPopAmps, s.monlistPopVictims = core.PopulationTable(res.MonlistAnalyses, res.Registries)
	s.megaSet = netaddr.NewSet(0)
	s.ampUnion = netaddr.NewSet(0)
	for _, a := range res.MonlistAnalyses {
		for addr, rec := range a.Amps {
			s.ampUnion.Add(addr)
			if rec.Mega {
				s.megaSet.Add(addr)
			}
		}
	}
	return s
}

// Results exposes the underlying scenario results for custom analyses.
func (s *Simulation) Results() *scenario.Results { return s.res }

// Scale returns the population re-inflation factor of this run.
func (s *Simulation) Scale() int { return s.res.Cfg.Scale }

// experiment is one entry of the registry behind All, ByID, Report,
// Reports and ExperimentIDs.
type experiment struct {
	id    string
	table func(*Simulation) *Table
	// extra is nil for the paper's tables, which make up All(). For a
	// report outside All() it says whether Reports includes it in a run.
	extra func(*Simulation) bool
}

func detectorOn(s *Simulation) bool { return s.res.Cfg.Detector != nil }
func timeSyncOn(s *Simulation) bool { return s.res.Cfg.TimeSync.Clients > 0 }

// experiments is the registry, in presentation order.
var experiments = []experiment{
	{"fig1", (*Simulation).Figure1, nil},
	{"fig2", (*Simulation).Figure2, nil},
	{"fig3", (*Simulation).Figure3, nil},
	{"fig4a", (*Simulation).Figure4a, nil},
	{"fig4b", (*Simulation).Figure4b, nil},
	{"fig4c", (*Simulation).Figure4c, nil},
	{"table1a", (*Simulation).Table1Amplifiers, nil},
	{"table1v", (*Simulation).Table1Victims, nil},
	{"table2", (*Simulation).Table2, nil},
	{"table3", (*Simulation).Table3, nil},
	{"fig5", (*Simulation).Figure5, nil},
	{"table4", (*Simulation).Table4, nil},
	{"fig6", (*Simulation).Figure6, nil},
	{"fig7", (*Simulation).Figure7, nil},
	{"fig8", (*Simulation).Figure8, nil},
	{"fig9", (*Simulation).Figure9, nil},
	{"fig10", (*Simulation).Figure10, nil},
	{"fig11", (*Simulation).Figure11, nil},
	{"fig12", (*Simulation).Figure12, nil},
	{"fig13", (*Simulation).Figure13, nil},
	{"fig14", (*Simulation).Figure14, nil},
	{"fig15", (*Simulation).Figure15, nil},
	{"fig16", (*Simulation).Figure16, nil},
	{"table5", (*Simulation).Table5, nil},
	{"table6", (*Simulation).Table6, nil},
	{"churn", (*Simulation).ChurnReport, nil},
	{"volume", (*Simulation).VolumeReport, nil},
	{"remediation", (*Simulation).RemediationReport, nil},
	{"dnsoverlap", (*Simulation).DNSOverlapReport, nil},
	{"ttl", (*Simulation).TTLReport, nil},
	{"mega", (*Simulation).MegaReport, nil},
	{"honeypot", (*Simulation).HoneypotReport, nil},
	{"hpconv", (*Simulation).HoneypotConvergence, nil},
	// Outside All(): each depends on a plane the All() digest must not.
	{"detect", (*Simulation).DetectReport, detectorOn},
	{"vectors", (*Simulation).DetectVectorReport, detectorOn},
	{"timesync", (*Simulation).TimeSyncReport, timeSyncOn},
	{"timeintegrity", (*Simulation).TimeIntegrityReport,
		func(s *Simulation) bool { return detectorOn(s) && timeSyncOn(s) }},
	{"hpevents", (*Simulation).HoneypotEvents, func(*Simulation) bool { return false }},
}

// ExperimentIDs lists every experiment id, All()'s tables first and then
// the reports outside it.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// All returns every table and figure of the paper's evaluation, in
// presentation order.
func (s *Simulation) All() []*Table {
	var out []*Table
	for _, e := range experiments {
		if e.extra == nil {
			out = append(out, e.table(s))
		}
	}
	return out
}

// Reports returns All() followed by the reports outside it whose plane
// this run armed: the detector reports, the sync-discipline reports.
func (s *Simulation) Reports() []*Table {
	out := s.All()
	for _, e := range experiments {
		if e.extra != nil && e.extra(s) {
			out = append(out, e.table(s))
		}
	}
	return out
}

// ByID returns the All() table with the given id ("fig1", "table4",
// "churn", ...), or nil.
func (s *Simulation) ByID(id string) *Table {
	for _, e := range experiments {
		if e.id == id && e.extra == nil {
			return e.table(s)
		}
	}
	return nil
}

// Report returns the table of any experiment id, including the reports
// outside All(), or nil.
func (s *Simulation) Report(id string) *Table {
	for _, e := range experiments {
		if e.id == id {
			return e.table(s)
		}
	}
	return nil
}

func day(t time.Time) string { return t.Format("2006-01-02") }
