// Command ntpsweep runs parameter sweeps over the simulation: seed
// replicates, Scale ladders, and grids over Config knobs (detector on/off,
// BCP38 spoofer fraction, remediation hazard), fanned across a worker pool.
// It prints the cross-run spread summary and a per-run digest manifest
// whose canonical bytes are independent of -workers — the determinism
// contract the test suite pins.
//
// Usage:
//
//	ntpsweep -seeds 1-16                        # 16 seed replicates
//	ntpsweep -seeds 1-8 -workers 4              # same jobs, 4-way pool
//	ntpsweep -seeds 1-4 -scales 2000,4000       # Scale ladder
//	ntpsweep -seeds 1-4 -spoof 0.1,0.25,0.5     # BCP38 sensitivity grid
//	ntpsweep -seeds 1-4 -detect both            # detector on/off ablation
//	ntpsweep -seeds 1-4 -vectors dns-any,ssdp,chargen -pulse 0.3 \
//	         -carpet 0.2 -multi 0.2 -detect on  # shaped multi-protocol campaigns
//	ntpsweep -seeds 1-4 -loss 0,0.05,0.1,0.2 -detect on \
//	         -sample 1,16                       # detection-degradation grid
//	ntpsweep -seeds 1-4 -end 2014-02-01         # truncated window (fast)
//	ntpsweep -seeds 1-4 -out manifest.json      # manifest to a file
//	ntpsweep -seeds 1-4 -csv                    # per-job CSV on stdout
//
// The group-summary table and per-job timing go to stderr; the manifest
// (canonical JSON, or CSV with -csv) goes to stdout or -out. SIGINT or
// SIGTERM interrupts the sweep cleanly: in-flight jobs finish, unrun jobs
// are recorded as canceled, and the partial manifest is still emitted
// (exit status 1).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ntpddos"
	"ntpddos/internal/buildinfo"
	"ntpddos/internal/metrics"
	"ntpddos/internal/sweep"
)

func main() {
	spec := sweep.Spec{Seeds: "1"}
	var (
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		scale       = flag.Int("scale", 2000, "base population divisor")
		csv         = flag.Bool("csv", false, "emit the per-job table as CSV instead of the JSON manifest")
		out         = flag.String("out", "-", "manifest destination (- = stdout)")
		quiet       = flag.Bool("q", false, "suppress per-job progress lines")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address during the sweep (e.g. :9091)")
		showVersion = buildinfo.Flag()
	)
	specFlags(flag.CommandLine, &spec)
	flag.Parse()
	buildinfo.Handle("ntpsweep", *showVersion)

	base := ntpddos.DefaultConfig()
	base.Scale = *scale
	grid, err := spec.Grid(base)
	if err != nil {
		fatalf("%v", err)
	}
	jobs := grid.Jobs()

	opt := sweep.Options{Workers: *workers}
	if !*quiet {
		opt.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ntpsweep: "+format+"\n", args...)
		}
	}
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterGoRuntime(reg)
		opt.Metrics = sweep.NewMetrics(reg)
		exp, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			fatalf("metrics exporter: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ntpsweep: serving metrics on http://%s/metrics\n", exp.Addr())
		exp.SetReady(true)
	}

	// SIGINT/SIGTERM cancel the sweep: in-flight jobs finish, queued jobs
	// are skipped, and the partial manifest below is still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "ntpsweep: %d jobs (%s)\n", len(jobs), gridShape(grid))
	start := time.Now()
	manifest, err := ntpddos.SweepContext(ctx, jobs, opt)
	canceled := errors.Is(err, ntpddos.ErrSweepCanceled)
	if err != nil && !canceled {
		fatalf("%v", err)
	}
	if canceled {
		fmt.Fprintf(os.Stderr, "ntpsweep: interrupted after %v — emitting partial manifest (%v)\n",
			time.Since(start).Round(time.Second), err)
	} else {
		fmt.Fprintf(os.Stderr, "ntpsweep: done in %v\n\n", time.Since(start).Round(time.Second))
	}

	fmt.Fprintln(os.Stderr, manifest.GroupTable().Render())
	fmt.Fprintln(os.Stderr, manifest.TimingTable().Render())
	fmt.Fprintf(os.Stderr, "ntpsweep: manifest digest %s\n", manifest.Digest())
	if failed := manifest.Failed(); len(failed) > 0 {
		for _, rec := range failed {
			fmt.Fprintf(os.Stderr, "ntpsweep: FAILED %s: %s\n", rec.ID, rec.Err)
		}
	}

	var payload []byte
	if *csv {
		payload = []byte(manifest.JobTable().CSV())
	} else {
		payload = manifest.CanonicalJSON()
	}
	if *out == "-" || *out == "" {
		os.Stdout.Write(payload)
	} else if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	if canceled || len(manifest.Failed()) > 0 {
		os.Exit(1)
	}
}

// specFlags registers the flags that fill the sweep spec on fs.
func specFlags(fs *flag.FlagSet, spec *sweep.Spec) {
	fs.StringVar(&spec.Seeds, "seeds", spec.Seeds, "replicate seeds: comma list and/or ranges, e.g. 1-16 or 1,5,9-12")
	fs.Var(sweep.IntsFlag(&spec.Scales), "scales", "comma-separated Scale ladder (empty = -scale only)")
	fs.StringVar(&spec.Name, "name", "", "experiment-name prefix for manifest cells")
	fs.StringVar(&spec.End, "end", "", "truncate the window at this date (YYYY-MM-DD; empty = full window)")
	spec.Flags(fs, false)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ntpsweep: "+format+"\n", args...)
	os.Exit(2)
}

func gridShape(g sweep.Grid) string {
	parts := []string{fmt.Sprintf("%d seeds", len(g.Seeds))}
	if len(g.Scales) > 1 {
		parts = append(parts, fmt.Sprintf("%d scales", len(g.Scales)))
	}
	for _, k := range g.Knobs {
		parts = append(parts, fmt.Sprintf("%s×%d", k.Name, len(k.Values)))
	}
	return strings.Join(parts, ", ")
}
