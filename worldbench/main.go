// Command worldbench is the repository's benchmark. It runs one named world
// workload through the public pipeline — scenario.Build, (*World).Run,
// ntpddos.NewSimulation, All() and report.Digest — again and again for a
// fixed number of host seconds, checks every run's digest, and prints the
// end-to-end metrics as the last line of standard output. With -trace 1 it
// adds one traced run and prints the per-layer metrics instead. See
// README.md for the workloads and metrics.
//
//	go run . -workload reflect -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// minReps is the fewest timed runs a measurement takes, however short
// -seconds is, so that every reported time is a median of at least three.
const minReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (reflect, census or timesync)")
		seed    = flag.Uint64("seed", defaultSeed, fmt.Sprintf("world seed (%d is pinned; hold %d out to validate a claim)", defaultSeed, heldOutSeed))
		seconds = flag.Int("seconds", 10, "host seconds the timed runs may take; there are always at least three")
		trace   = flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
		dir     = flag.String("trace-dir", ".bench_build/worldbench-trace", "where a traced run writes its spans and CPU profile")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "worldbench:", err)
		os.Exit(2)
	}

	// The simulator is single-threaded; a second processor only absorbs
	// the collector. Capping at two keeps machines with more cores
	// comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	hostLine, _ := json.Marshal(map[string]host{"host": fingerprint()})
	fmt.Println(string(hostLine))

	res := bench(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worldbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench measures one workload: timed runs while another one is expected
// to end within d, then, when traced, one traced run. A run that fails or
// mismatches counts as failed and its timings are dropped. Each timed run
// follows a calibrate call, and the reported times are scaled by
// refCalibSeconds over the median calibration.
func bench(wl workload, seed uint64, d time.Duration, traced bool, dir string) result {
	cfg := wl.config(seed)
	pin := pinFor(wl, seed)
	res := result{Metrics: map[string]metric{}}
	var (
		ref                                *outcome
		walls, setups, rates, calibs, mems []float64
	)
	start := time.Now()
	for len(walls) < minReps || time.Since(start).Seconds()+median(walls)+median(calibs) <= d.Seconds() {
		if res.Attempted >= minReps && len(walls) == 0 {
			break // every run so far failed; more would only repeat it
		}
		runtime.GC()
		calibs = append(calibs, calibrate())
		runtime.GC()
		res.Attempted++
		held := startPeak(func(s runtimeStats) uint64 { return s.heldBytes })
		o, err := runWorld(cfg, nil)
		mem := held.done()
		if err == nil {
			err = o.check(pin, ref)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "worldbench: %s/seed=%d run %d failed: %v\n", wl.name, seed, res.Attempted, err)
			continue
		}
		if ref == nil {
			ref = &o
		}
		walls = append(walls, o.wall)
		setups = append(setups, o.setup)
		rates = append(rates, o.datagramsPerSec())
		mems = append(mems, float64(mem)/1e6)
		fmt.Fprintf(os.Stderr, "worldbench: %s/seed=%d run %d: calibrate %.3fs wall %.3fs build %.3fs timeline %.3fs %d datagrams digest %s\n",
			wl.name, seed, res.Attempted, calibs[len(calibs)-1], o.wall, o.setup, o.timeline, o.fabric.Datagrams, o.digest)
	}
	if ref == nil {
		return res
	}
	toRef := refCalibSeconds / median(calibs)

	if !traced {
		res.Metrics["wall_s"] = metric{median(walls) * toRef, "s"}
		res.Metrics["setup_s"] = metric{median(setups) * toRef, "s"}
		res.Metrics["datagrams_per_s"] = metric{median(rates) / toRef, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{median(mems), "MB"}
	} else {
		runtime.GC()
		res.Attempted++
		m, err := tracedRun(wl, seed, *ref, median(walls), dir)
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "worldbench: %s/seed=%d traced run failed: %v\n", wl.name, seed, err)
			return res
		}
		m["host.wall_s"] = metric{median(walls), "s"}
		m["host.calib_s"] = metric{median(calibs), "s"}
		res.Metrics = m
	}
	res.Correct = res.Failed == 0
	return res
}

// pinFor returns the digest a run at seed must reproduce, or "" when the
// seed has no pin and runs are only checked against each other.
func pinFor(wl workload, seed uint64) string {
	if seed == defaultSeed {
		return wl.pin
	}
	return ""
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
