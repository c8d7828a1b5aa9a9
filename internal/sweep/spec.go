package sweep

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ntpddos/internal/reflector"
	"ntpddos/internal/scenario"
)

// Spec is the declarative sweep description: seed ranges, a Scale ladder,
// a window truncation, and one field per row of the knob table (params),
// which says how each parses, validates and lands on scenario.Config.
// It is the JSON job-spec format the serving layer accepts over HTTP and
// the surface cmd/ntpsweep's flags compile to, so a job submitted to
// ntpserved expands into exactly the jobs the CLI would run.
type Spec struct {
	// Name prefixes every experiment cell in the manifest.
	Name string `json:"name,omitempty"`
	// Seeds lists replicate seeds: comma list and/or ranges ("1-16",
	// "1,5,9-12"). Required.
	Seeds string `json:"seeds"`
	// Scale is the base population divisor (0 = the base config's value).
	Scale int `json:"scale,omitempty"`
	// Scales is the Scale ladder; when set it overrides Scale.
	Scales []int `json:"scales,omitempty"`
	// End truncates the window at this date (YYYY-MM-DD; empty = full).
	End string `json:"end,omitempty"`
	// The knob-table rows: each field's help, kind, range and Config
	// setter live in its row of params, keyed by the JSON name.
	Detect        string    `json:"detect,omitempty"`
	NoRemediation string    `json:"noremediation,omitempty"`
	Spoof         []float64 `json:"spoof,omitempty"`
	Hazard        []float64 `json:"hazard,omitempty"`
	Vectors       []string  `json:"vectors,omitempty"`
	Pulse         []float64 `json:"pulse,omitempty"`
	Carpet        []float64 `json:"carpet,omitempty"`
	Multi         []float64 `json:"multi,omitempty"`
	Loss          []float64 `json:"loss,omitempty"`
	Dup           []float64 `json:"dup,omitempty"`
	Reorder       []float64 `json:"reorder,omitempty"`
	Flap          []float64 `json:"flap,omitempty"`
	Sample        []int     `json:"sample,omitempty"`
	Outage        []float64 `json:"outage,omitempty"`
	Blackout      []float64 `json:"blackout,omitempty"`
	TimeSync      int       `json:"timesync,omitempty"`
	TimeAttack    []float64 `json:"timeattack,omitempty"`
}

// MaxJobs bounds how many jobs one spec may expand to: NumJobs and Grid
// refuse a spec past it before expanding anything.
const MaxJobs = 1 << 20

// maxSeeds bounds a spec's seed count, the same bound a single seed range
// already has.
const maxSeeds = 10_000

// ErrTooLarge is wrapped by every error for a spec or grid that would
// expand past MaxJobs.
var ErrTooLarge = errors.New("too many jobs")

// NumJobs returns how many jobs the spec expands to, without expanding
// them — the admission controller's cheap pre-flight check. It validates
// the spec as Grid does, so a count it returns is always exact.
func (s Spec) NumJobs() (int, error) {
	g, err := s.Grid(scenario.Config{})
	if err != nil {
		return 0, err
	}
	return g.size()
}

// Grid compiles the spec against a base configuration: the fixed fields
// first, then each knob-table row in table order. The returned grid's
// Jobs() are deterministic in spec order, which is what makes a daemon-run
// sweep byte-identical to the same spec run in-process.
func (s Spec) Grid(base scenario.Config) (Grid, error) {
	g := Grid{Base: base, Name: s.Name}
	var err error
	if g.Seeds, err = ParseSeeds(s.Seeds); err != nil {
		return g, err
	}
	if s.Scale != 0 {
		if s.Scale < 0 {
			return g, fmt.Errorf("bad scale %d: must be positive", s.Scale)
		}
		g.Base.Scale = s.Scale
	}
	for i, sc := range s.Scales {
		if sc <= 0 {
			return g, fmt.Errorf("bad scales[%d] %d: must be positive", i, sc)
		}
	}
	g.Scales = s.Scales
	if s.End != "" {
		end, err := time.Parse("2006-01-02", s.End)
		if err != nil {
			return g, fmt.Errorf("bad end %q: want YYYY-MM-DD", s.End)
		}
		g.Base.End = end
	}
	for _, p := range params {
		if !p.isSet(&s) {
			continue
		}
		if p.needs != "" && !lookup(p.needs).isSet(&s) {
			return g, fmt.Errorf("%s requires %s to be set", p.key, p.needs)
		}
		if err := p.compile(&s, &g); err != nil {
			return g, err
		}
	}
	_, err = g.size()
	return g, err
}

// ExtraVectorNames lists the vectors a spec may arm beyond monlist — the
// catalogue minus the always-on default, in stable order.
func ExtraVectorNames() []reflector.Vector {
	var out []reflector.Vector
	for _, v := range reflector.Vectors() {
		if v != reflector.Monlist {
			out = append(out, v)
		}
	}
	return out
}

// Jobs compiles the spec and expands it in one step.
func (s Spec) Jobs(base scenario.Config) ([]Job, error) {
	g, err := s.Grid(base)
	if err != nil {
		return nil, err
	}
	return g.Jobs(), nil
}

// ParseSeeds expands "1-16" / "1,5,9-12" into an ordered seed list of at
// most 10,000 seeds, failing before it allocates past that bound.
func ParseSeeds(spec string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// A single seed is the range n-n.
		lo, hi, isRange := strings.Cut(part, "-")
		if !isRange {
			hi = lo
		}
		a, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		switch {
		case err1 != nil || err2 != nil || b < a:
			return nil, fmt.Errorf("bad seed %q", part)
		case b-a >= maxSeeds:
			return nil, fmt.Errorf("seed range %q too large", part)
		case len(seeds)+int(b-a) >= maxSeeds:
			return nil, fmt.Errorf("seeds %q: more than %d seeds", spec, maxSeeds)
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds in %q", spec)
	}
	return seeds, nil
}

// OnOffKnob maps an off/on/both spec to knob values; "" and "off" return
// nil (no grid dimension at all, keeping manifest cells clean).
func OnOffKnob(spec string, set func(*scenario.Config)) ([]KnobValue, error) {
	off := KnobValue{Label: "off", Apply: func(*scenario.Config) {}}
	on := KnobValue{Label: "on", Apply: set}
	switch spec {
	case "", "off":
		return nil, nil
	case "on":
		return []KnobValue{on}, nil
	case "both":
		return []KnobValue{off, on}, nil
	}
	return nil, fmt.Errorf("want off, on, or both")
}

// FloatKnob builds one knob value per float, labeled by its shortest
// round-trip formatting.
func FloatKnob(vals []float64, set func(*scenario.Config, float64)) []KnobValue {
	out := make([]KnobValue, 0, len(vals))
	for _, v := range vals {
		v := v
		out = append(out, KnobValue{
			Label: strconv.FormatFloat(v, 'g', -1, 64),
			Apply: func(c *scenario.Config) { set(c, v) },
		})
	}
	return out
}
