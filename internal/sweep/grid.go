package sweep

import (
	"fmt"

	"ntpddos/internal/scenario"
)

// KnobValue is one setting of a parameter-grid dimension: a label for the
// manifest plus the mutation it applies to a job's config.
type KnobValue struct {
	Label string
	Apply func(*scenario.Config)
}

// Knob is one grid dimension over a Config parameter (detector on/off,
// BCP38 spoofer fraction, remediation hazard, ...).
type Knob struct {
	Name   string
	Values []KnobValue
}

// Grid expands into the cross product of its dimensions: every Scale, times
// every combination of Knob values, times every Seed replicate. Jobs that
// differ only by seed share an Experiment cell, which is what makes the
// manifest's group summaries seed-spread envelopes.
type Grid struct {
	// Base is the configuration every job starts from.
	Base scenario.Config
	// Name prefixes every experiment cell ("fig3", "sensitivity", ...).
	// Empty is fine when the knob labels are self-describing.
	Name string
	// Seeds are the replicate seeds; empty means {Base.Seed}.
	Seeds []uint64
	// Scales is the Scale ladder; empty means {Base.Scale}.
	Scales []int
	// Knobs are further grid dimensions, crossed in order.
	Knobs []Knob
}

// size returns how many jobs Jobs expands to. It multiplies the dimensions
// with saturation, failing with ErrTooLarge past MaxJobs, so a grid's size
// is known before anything is allocated.
func (g Grid) size() (int, error) {
	n := max(len(g.Seeds), 1)
	dims := []int{max(len(g.Scales), 1)}
	for _, k := range g.Knobs {
		dims = append(dims, len(k.Values))
	}
	for _, d := range dims {
		if d > 1 && n > MaxJobs/d {
			return 0, fmt.Errorf("%w: the grid expands to more than %d", ErrTooLarge, MaxJobs)
		}
		n *= d
	}
	return n, nil
}

// Jobs expands the grid in deterministic order: scales outermost, then knob
// combinations (first knob varying slowest), then seeds innermost. It
// panics on a grid past MaxJobs; Spec.Grid never returns one.
func (g Grid) Jobs() []Job {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{g.Base.Seed}
	}
	scales := g.Scales
	if len(scales) == 0 {
		scales = []int{g.Base.Scale}
	}
	for _, k := range g.Knobs {
		if len(k.Values) == 0 {
			panic(fmt.Sprintf("sweep: knob %q has no values", k.Name))
		}
	}

	n, err := g.size()
	if err != nil {
		panic("sweep: " + err.Error())
	}
	jobs := make([]Job, 0, n)
	combo := make([]int, len(g.Knobs))
	for _, scale := range scales {
		for {
			cell := g.Name
			params := map[string]string{}
			if len(scales) > 1 {
				part := fmt.Sprintf("scale=%d", scale)
				cell = joinCell(cell, part)
				params["scale"] = fmt.Sprintf("%d", scale)
			}
			for ki, k := range g.Knobs {
				v := k.Values[combo[ki]]
				cell = joinCell(cell, fmt.Sprintf("%s=%s", k.Name, v.Label))
				params[k.Name] = v.Label
			}
			for _, seed := range seeds {
				cfg := g.Base
				cfg.Scale = scale
				cfg.Seed = seed
				for ki, k := range g.Knobs {
					k.Values[combo[ki]].Apply(&cfg)
				}
				p := make(map[string]string, len(params)+1)
				for k, v := range params {
					p[k] = v
				}
				p["seed"] = fmt.Sprintf("%d", seed)
				jobs = append(jobs, Job{
					ID:         joinCell(cell, fmt.Sprintf("seed=%d", seed)),
					Experiment: cell,
					Params:     p,
					Cfg:        cfg,
				})
			}
			if !next(combo, g.Knobs) {
				break
			}
		}
	}
	return jobs
}

// next advances the knob combination odometer (last knob fastest); false
// when the cross product is exhausted.
func next(combo []int, knobs []Knob) bool {
	for i := len(combo) - 1; i >= 0; i-- {
		combo[i]++
		if combo[i] < len(knobs[i].Values) {
			return true
		}
		combo[i] = 0
	}
	return false
}

func joinCell(cell, part string) string {
	if cell == "" {
		return part
	}
	return cell + "/" + part
}

// Replicates is the common single-cell grid: one config, many seeds.
func Replicates(name string, base scenario.Config, seeds ...uint64) []Job {
	return Grid{Base: base, Name: name, Seeds: seeds}.Jobs()
}
