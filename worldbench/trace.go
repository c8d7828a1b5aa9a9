package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/metrics/metricstest"
)

// span is one timed phase of a traced run. Spans stay in memory and are
// written out once the run has ended.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level phase
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced run began
	End    float64 `json:"end_s"`
	// AllocMB is the heap allocated while the span was open.
	AllocMB float64 `json:"alloc_mb"`

	tr     *tracer
	t0     time.Time
	alloc0 uint64
}

// tracer records the spans of one traced run. A nil *tracer records
// nothing, but its spans still time.
type tracer struct {
	t0    time.Time
	spans []*span
}

func (tr *tracer) start(name string, parent *span) *span {
	s := &span{Name: name, tr: tr, t0: time.Now()}
	if tr != nil {
		tr.spans = append(tr.spans, s)
		s.ID = len(tr.spans)
		if parent != nil {
			s.Parent = parent.ID
		}
		s.Start = s.t0.Sub(tr.t0).Seconds()
		s.alloc0 = readRuntime().allocBytes
	}
	return s
}

// end closes the span and returns its length in seconds.
func (s *span) end() float64 {
	d := time.Since(s.t0).Seconds()
	if s.tr != nil {
		s.End = s.Start + d
		s.AllocMB = float64(readRuntime().allocBytes-s.alloc0) / 1e6
	}
	return d
}

// topLevel sums the durations of the spans without a parent.
func (tr *tracer) topLevel() float64 {
	var sum float64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			sum += s.End - s.Start
		}
	}
	return sum
}

func (tr *tracer) span(name string) *span {
	for _, s := range tr.spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	heapBytes  uint64
	// heldBytes is the memory the runtime has mapped and not returned to
	// the OS: the process's resident memory, less non-Go mappings.
	heldBytes uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
}

func readRuntime() runtimeStats {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		heapBytes:  s[3].Value.Uint64(),
		heldBytes:  s[4].Value.Uint64() - s[5].Value.Uint64(),
	}
}

// peakSampler samples one runtime quantity every 10 ms until stopped; the
// runtime keeps no high-water marks of its own.
type peakSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startPeak(read func(runtimeStats) uint64) *peakSampler {
	h := &peakSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, read(readRuntime()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak.
func (h *peakSampler) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// tracedRun runs the workload once more with every instrument attached —
// the metrics registry, spans and a CPU profile of the whole pipeline —
// checks that it reproduces ref exactly, and returns the per-layer
// metrics. untracedWall is the timed runs' median wall time. The spans and
// the profile are written under dir.
func tracedRun(wl workload, seed uint64, ref outcome, untracedWall float64, dir string) (map[string]metric, error) {
	reg := metrics.NewRegistry()
	cfg := wl.config(seed)
	cfg.Metrics = reg

	var profile bytes.Buffer
	before := readRuntime()
	peak := startPeak(func(s runtimeStats) uint64 { return s.heapBytes })
	if err := pprof.StartCPUProfile(&profile); err != nil {
		peak.done()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tr := &tracer{t0: time.Now()}
	o, err := runWorld(cfg, tr)
	pprof.StopCPUProfile()
	heapPeak := peak.done()
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	if err := o.check(pinFor(wl, seed), &ref); err != nil {
		return nil, fmt.Errorf("traced run is not inert: %w", err)
	}

	fams, err := metricstest.Parse(reg.RenderText())
	if err != nil {
		return nil, fmt.Errorf("reading the metrics registry: %w", err)
	}
	shares, nsamples, err := cpuShares(profile.Bytes())
	if err != nil {
		return nil, err
	}

	m := layerMetrics(o, fams)
	for _, l := range cpuLayers {
		m["cpu."+l] = metric{shares[l], "%"}
	}
	m["cpu.samples"] = metric{float64(nsamples), "count"}
	for _, name := range []string{"scenario.build_s", "scenario.timeline_s", "report.tables_s", "report.digest_s"} {
		s := tr.span(name)
		m[name] = metric{s.End - s.Start, "s"}
	}
	m["scenario.build_alloc_mb"] = metric{tr.span("scenario.build_s").AllocMB, "MB"}
	m["trace.span_coverage_pct"] = metric{100 * tr.topLevel() / o.wall, "%"}
	m["trace.overhead_pct"] = metric{100 * (o.wall - untracedWall) / untracedWall, "%"}
	m["gc.cycles"] = metric{float64(after.gcCycles - before.gcCycles), "count"}
	m["gc.alloc_mb"] = metric{float64(after.allocBytes-before.allocBytes) / 1e6, "MB"}
	m["gc.cpu_s"] = metric{after.gcCPU - before.gcCPU, "s"}
	m["gc.peak_heap_mb"] = metric{float64(heapPeak) / 1e6, "MB"}

	if err := writeTrace(dir, wl.name, seed, tr, profile.Bytes()); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	return m, nil
}

// layerMetrics derives the per-layer counts from the fabric read-outs and
// the metrics registry. Registry families with labels are summed over
// their label sets.
func layerMetrics(o outcome, fams metricstest.Families) map[string]metric {
	sum := func(name string) float64 {
		var v float64
		if f := fams[name]; f != nil {
			for _, s := range f.Samples {
				v += s.Value
			}
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	f := o.fabric
	dg := float64(f.Datagrams)
	fired := sum("ntpsim_sched_events_fired_total")
	return map[string]metric{
		"netsim.datagrams":                  {dg, "count"},
		"netsim.sent_pkts":                  {float64(f.Sent), "count"},
		"netsim.rep_per_datagram":           {ratio(float64(f.Reps), dg), "ratio"},
		"netsim.delivered_share":            {ratio(float64(f.Delivered), float64(f.Sent)), "ratio"},
		"netsim.dark_share":                 {ratio(float64(f.Dark), float64(f.Sent)), "ratio"},
		"netsim.payload_bytes_per_datagram": {ratio(float64(f.PayloadBytes), dg), "B/datagram"},
		"netsim.tap_observations":           {sum("ntpsim_fabric_tap_observations_total"), "count"},
		"ntpd.queries":                      {sum("ntpsim_ntpd_queries_total"), "count"},
		"ntpd.monlist_packets":              {sum("ntpsim_ntpd_monlist_packets_total"), "count"},
		"ntpd.response_mb":                  {sum("ntpsim_ntpd_response_bytes_total") / 1e6, "MB"},
		"ntpd.mega_storms":                  {sum("ntpsim_ntpd_mega_storms_total"), "count"},
		"vtime.events_fired":                {fired, "count"},
		"vtime.events_per_datagram":         {ratio(fired, dg), "ratio"},
		"vtime.peak_pending":                {float64(f.PeakPending), "count"},
		"attack.campaigns":                  {sum("ntpsim_attack_campaigns_total"), "count"},
		"attack.triggers_sent":              {sum("ntpsim_attack_triggers_sent_total"), "count"},
		"ispview.packets":                   {sum("ntpsim_ispview_packets_total"), "count"},
		"telemetry.tap_mb":                  {sum("ntpsim_telemetry_tap_bytes_total") / 1e6, "MB"},
		"honeypot.requests":                 {sum("ntpsim_honeypot_requests_total"), "count"},
		"honeypot.replies":                  {sum("ntpsim_honeypot_replies_sent_total"), "count"},
		"detect.packets":                    {sum("ntpsim_detect_packets_total"), "count"},
		"scan.probes_sent":                  {sum("ntpsim_scan_probes_sent_total"), "count"},
		"scan.response_packets":             {sum("ntpsim_scan_response_packets_total"), "count"},
		"scan.responders":                   {sum("ntpsim_scan_responders"), "count"},
		"core.samples":                      {float64(o.samples), "count"},
		"timesync.polls":                    {sum("ntpsync_polls_total"), "count"},
		"timesync.samples":                  {sum("ntpsync_samples_total"), "count"},
		"timeattack.forged_replies":         {sum("ntpattack_forged_replies_total"), "count"},
		"timeattack.rewritten_replies":      {sum("ntpattack_rewritten_replies_total"), "count"},
	}
}

// writeTrace writes the spans as JSON and the raw CPU profile, which
// `go tool pprof` reads, under dir.
func writeTrace(dir, name string, seed uint64, tr *tracer, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	doc := struct {
		Trace string  `json:"trace"`
		Host  host    `json:"host"`
		Spans []*span `json:"spans"`
	}{fmt.Sprintf("%s/seed=%d", name, seed), fingerprint(), tr.spans}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-spans.json", append(js, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", profile, 0o644)
}
