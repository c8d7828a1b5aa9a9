package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"ntpddos"
	"ntpddos/internal/packet"
	"ntpddos/internal/report"
	"ntpddos/internal/scenario"
)

// countTap counts the datagrams the fabric puts in flight. It is attached
// after Build as the last tap and only reads header fields, so the world
// behaves exactly as it would without it.
type countTap struct {
	datagrams    int64
	reps         int64
	payloadBytes int64
}

func (c *countTap) Observe(dg *packet.Datagram, _ time.Time) {
	c.datagrams++
	c.reps += dg.Rep
	c.payloadBytes += int64(len(dg.Payload))
}

// fabric is what one world put through its fabric. Two runs of one
// configuration must agree on every field.
type fabric struct {
	Datagrams    int64 // real in-flight datagrams, not Rep-weighted
	Reps         int64 // the same datagrams, Rep-weighted
	PayloadBytes int64 // payload bytes of the real datagrams
	Sent         int64 // Rep-weighted packets accepted from senders
	Delivered    int64 // Rep-weighted packets handed to a registered host
	Dark         int64 // Rep-weighted packets to unregistered addresses
	PeakPending  int   // scheduler queue high-water mark
	Hosts        int   // registered hosts at the end of the run
}

// outcome is one world run from Build to the verified digest.
type outcome struct {
	digest string
	tables int
	fabric fabric
	// wall covers Build through the verified digest; setup is Build alone
	// and timeline is (*World).Run alone. All are host seconds.
	wall, setup, timeline float64
	// samples is the number of survey samples the run analysed.
	samples int
}

func (o outcome) datagramsPerSec() float64 { return float64(o.fabric.Datagrams) / o.timeline }

// check compares a run with the pinned digest (empty pin: no pin) and with
// a reference run of the same configuration (nil: none yet).
func (o outcome) check(pin string, ref *outcome) error {
	if o.tables != wantTables {
		return fmt.Errorf("got %d tables, want %d", o.tables, wantTables)
	}
	if pin != "" && o.digest != pin {
		return fmt.Errorf("digest %s, pinned %s", o.digest, pin)
	}
	if ref != nil {
		if o.digest != ref.digest {
			return fmt.Errorf("digest %s differs from an earlier run's %s", o.digest, ref.digest)
		}
		if o.fabric != ref.fabric {
			return fmt.Errorf("fabric counts %+v differ from an earlier run's %+v", o.fabric, ref.fabric)
		}
	}
	return nil
}

// runWorld drives the public pipeline once: scenario.Build, (*World).Run,
// ntpddos.NewSimulation, All() and report.Digest. The digest covers the
// sync-discipline table too when that plane is on, as ntpddos.SweepRunner
// does. With a non-nil tracer the phases are recorded as spans and each
// table gets its own span. A panic anywhere in the pipeline is returned as
// an error.
func runWorld(cfg scenario.Config, tr *tracer) (o outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	start := time.Now()

	sp := tr.start("scenario.build_s", nil)
	w := scenario.Build(cfg)
	o.setup = sp.end()

	tap := &countTap{}
	w.Net.AddTap(tap)
	sp = tr.start("scenario.timeline_s", nil)
	res := w.Run()
	o.timeline = sp.end()

	sp = tr.start("report.tables_s", nil)
	sim := ntpddos.NewSimulation(res)
	var tables []*report.Table
	if tr == nil {
		tables = sim.All()
	} else {
		for _, f := range tableMethods(sim) {
			child := tr.start("report.table", sp)
			t := f()
			child.Name = "report.table." + t.ID
			child.end()
			tables = append(tables, t)
		}
	}
	o.tables = len(tables)
	if res.TimeSync != nil {
		tables = append(tables, sim.TimeSyncReport())
	}
	sp.end()

	sp = tr.start("report.digest_s", nil)
	o.digest = report.Digest(tables)
	sp.end()

	st := w.Net.Stats()
	o.fabric = fabric{
		Datagrams: tap.datagrams, Reps: tap.reps, PayloadBytes: tap.payloadBytes,
		Sent: st.Sent, Delivered: st.Delivered, Dark: st.Dark,
		PeakPending: w.Sched.PeakPending(), Hosts: w.Net.NumHosts(),
	}
	o.samples = len(res.MonlistAnalyses) + len(res.VersionAnalyses)
	o.wall = time.Since(start).Seconds()
	return o, nil
}

// tableMethods lists the table methods of (*Simulation).All in the same
// order, so the traced run can time each one. The traced run's digest is
// checked against the untraced one, so a drift between this list and All()
// fails the run rather than going unnoticed.
func tableMethods(s *ntpddos.Simulation) []func() *ntpddos.Table {
	return []func() *ntpddos.Table{
		s.Figure1, s.Figure2, s.Figure3, s.Figure4a, s.Figure4b,
		s.Figure4c, s.Table1Amplifiers, s.Table1Victims, s.Table2,
		s.Table3, s.Figure5, s.Table4, s.Figure6, s.Figure7,
		s.Figure8, s.Figure9, s.Figure10, s.Figure11, s.Figure12,
		s.Figure13, s.Figure14, s.Figure15, s.Figure16, s.Table5,
		s.Table6, s.ChurnReport, s.VolumeReport, s.RemediationReport,
		s.DNSOverlapReport, s.TTLReport, s.MegaReport,
		s.HoneypotReport, s.HoneypotConvergence,
	}
}
