// Command ntpsim runs the full NTP-DDoS measurement reproduction and prints
// the paper's tables and figures.
//
// Usage:
//
//	ntpsim                     # run at -scale and print every experiment
//	ntpsim -experiment fig3    # print one experiment
//	ntpsim -list               # list experiment ids
//	ntpsim -csv -experiment table4 > ports.csv
//	ntpsim -scale 2000         # faster, coarser world
//	ntpsim -loss 0.1 -sample 16 -detect   # chaos run: lossy fabric, sampled NetFlow
//	ntpsim -quick -scale 2000 -sensors 10 -experiment honeypot,hpconv,hpevents
//
// The scenario knobs (-detect ... -timeattack) are rows of the sweep knob
// table, compiled through the same sweep.Spec as an ntpsweep run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"ntpddos"
	"ntpddos/internal/buildinfo"
	"ntpddos/internal/metrics"
	"ntpddos/internal/sweep"
)

func main() {
	var (
		scale       = flag.Int("scale", 400, "population divisor (smaller = bigger, slower world)")
		seed        = flag.Uint64("seed", 1, "world seed")
		experiment  = flag.String("experiment", "", "print only these experiment ids (comma-separated)")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		quick       = flag.Bool("quick", false, "use the quick test-scale configuration")
		pcapDir     = flag.String("pcap", "", "directory to persist weekly monlist samples as .pcap files")
		sensors     = flag.Int("sensors", 0, "honeypot fleet size (0 = the configuration's default)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address while the run progresses (e.g. :9091)")
		spec        sweep.Spec
	)
	spec.Flags(flag.CommandLine, true, "detect", "loss", "dup", "reorder", "flap",
		"sample", "outage", "blackout", "timesync", "timeattack")
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("ntpsim", *showVersion)

	if *list {
		for _, id := range ntpddos.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	var ids []string
	if *experiment != "" {
		ids = strings.Split(*experiment, ",")
		for _, id := range ids {
			if !slices.Contains(ntpddos.ExperimentIDs(), id) {
				log.Fatalf("ntpsim: unknown experiment %q (try -list)", id)
			}
		}
	}
	if *sensors < 0 {
		log.Fatalf("ntpsim: bad -sensors %d: must be non-negative", *sensors)
	}

	base := ntpddos.DefaultConfig()
	if *quick {
		base = ntpddos.QuickConfig()
	}
	base.Scale = *scale
	base.PCAPDir = *pcapDir
	if *sensors > 0 {
		base.HoneypotSensors = *sensors
	}
	spec.Seeds = strconv.FormatUint(*seed, 10)
	jobs, err := spec.Jobs(base)
	if err == nil && len(jobs) != 1 {
		err = fmt.Errorf("the knob values span %d worlds; ntpsim runs one (use ntpsweep)", len(jobs))
	}
	if err != nil {
		log.Fatalf("ntpsim: %v", err)
	}
	cfg := jobs[0].Cfg

	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterGoRuntime(reg)
		cfg.Metrics = reg
		exp, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("ntpsim: metrics exporter: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ntpsim: serving metrics on http://%s/metrics\n", exp.Addr())
		exp.SetReady(true)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			exp.Shutdown(ctx)
		}()
	}

	fmt.Fprintf(os.Stderr, "ntpsim: running 2013-09 through 2014-05 at scale 1/%d (seed %d)...\n",
		cfg.Scale, cfg.Seed)
	sim := ntpddos.Run(cfg)
	fmt.Fprintf(os.Stderr, "ntpsim: done.\n\n")

	tables := sim.Reports()
	if ids != nil {
		tables = nil
		for _, id := range ids {
			tables = append(tables, sim.Report(id))
		}
	}
	for _, t := range tables {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
}
