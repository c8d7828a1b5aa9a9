package sweep

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"ntpddos/internal/detect"
	"ntpddos/internal/reflector"
	"ntpddos/internal/scenario"
)

// kind is how a knob-table row's values parse, validate and expand.
type kind int

const (
	onOffKind  kind = iota // "off", "on" or "both"; one grid dimension
	realKind               // a list of floats, one grid cell each
	shareKind              // a list of floats within [0,1]
	rateKind               // a list of floats within [0,1)
	strideKind             // a list of ints of at least 1
	countKind              // one non-negative int; a base setting
	vectorKind             // a list of extra reflector vectors; a base setting
)

// kindUsage completes a row's help text into its flag usage.
var kindUsage = map[kind]string{onOffKind: ": off, on, or both", shareKind: " in [0,1]", rateKind: " in [0,1)",
	vectorKind: fmt.Sprintf(" %v", ExtraVectorNames())}

// param is one row of the knob table: a Spec JSON key that sets a
// scenario.Config value. The key is also the CLI flag name and the
// manifest label.
type param struct {
	key  string
	kind kind
	help string
	// needs names the row that must be set for this one to be.
	needs string
	// field points at the Spec field the key decodes into: *string for
	// onOffKind, *int for countKind, else a pointer to a slice.
	field func(*Spec) any
	// set applies one value to a Config: func(*scenario.Config) for
	// onOffKind ("on"), else func(*scenario.Config, T) with T the
	// field's element type.
	set any
}

// params is the knob table. Its order is the order Grid crosses the
// dimensions in, which fixes every job ID, manifest cell and digest.
var params = []param{
	{key: "detect", kind: onOffKind, help: "streaming detection plane",
		field: func(s *Spec) any { return &s.Detect },
		set: func(c *scenario.Config) {
			dcfg := detect.DefaultConfig()
			c.Detector = &dcfg
		}},
	{key: "noremediation", kind: onOffKind, help: "counterfactual with remediation switched off",
		field: func(s *Spec) any { return &s.NoRemediation },
		set:   func(c *scenario.Config) { c.NoRemediation = true }},
	{key: "spoof", kind: realKind, help: "BCP38 spoofer fraction (0 = nobody spoofs)",
		field: func(s *Spec) any { return &s.Spoof },
		set: func(c *scenario.Config, v float64) {
			if v == 0 {
				v = -1 // Config uses 0 for "default"; 0 in a spec means nobody spoofs
			}
			c.SpooferFraction = v
		}},
	{key: "hazard", kind: realKind, help: "remediation-hazard multiplier",
		field: func(s *Spec) any { return &s.Hazard },
		set:   func(c *scenario.Config, v float64) { c.RemediationHazard = v }},
	{key: "vectors", kind: vectorKind, help: "extra reflector vectors to arm beside monlist",
		field: func(s *Spec) any { return &s.Vectors },
		set:   func(c *scenario.Config, v []string) { c.ExtraVectors = v }},
	{key: "timesync", kind: countKind, help: "disciplined NTP client count (0 keeps the timesync plane off)",
		field: func(s *Spec) any { return &s.TimeSync },
		set:   func(c *scenario.Config, n int) { c.TimeSync.Clients = n }},
	{key: "timeattack", kind: shareKind, needs: "timesync", help: "time-integrity attack share",
		field: func(s *Spec) any { return &s.TimeAttack },
		set:   func(c *scenario.Config, v float64) { c.TimeAttackShare = v }},
	{key: "pulse", kind: shareKind, help: "pulse-wave campaign share",
		field: func(s *Spec) any { return &s.Pulse },
		set:   func(c *scenario.Config, v float64) { c.PulseWaveShare = v }},
	{key: "carpet", kind: shareKind, help: "carpet-bombing campaign share",
		field: func(s *Spec) any { return &s.Carpet },
		set:   func(c *scenario.Config, v float64) { c.CarpetBombShare = v }},
	{key: "multi", kind: shareKind, help: "multi-vector campaign share",
		field: func(s *Spec) any { return &s.Multi },
		set:   func(c *scenario.Config, v float64) { c.MultiVectorShare = v }},
	{key: "loss", kind: rateKind, help: "fabric packet-loss rate",
		field: func(s *Spec) any { return &s.Loss },
		set:   func(c *scenario.Config, v float64) { c.Faults.Loss = v }},
	{key: "dup", kind: rateKind, help: "fabric duplication rate",
		field: func(s *Spec) any { return &s.Dup },
		set:   func(c *scenario.Config, v float64) { c.Faults.Dup = v }},
	{key: "reorder", kind: rateKind, help: "fabric reordering rate",
		field: func(s *Spec) any { return &s.Reorder },
		set:   func(c *scenario.Config, v float64) { c.Faults.Reorder = v }},
	{key: "flap", kind: rateKind, help: "link-flap dark fraction",
		field: func(s *Spec) any { return &s.Flap },
		set:   func(c *scenario.Config, v float64) { c.Faults.FlapRate = v }},
	{key: "outage", kind: rateKind, help: "NetFlow collector dark fraction",
		field: func(s *Spec) any { return &s.Outage },
		set:   func(c *scenario.Config, v float64) { c.Faults.CollectorOutage = v }},
	{key: "blackout", kind: rateKind, help: "honeypot sensor blackout fraction",
		field: func(s *Spec) any { return &s.Blackout },
		set:   func(c *scenario.Config, v float64) { c.Faults.SensorBlackout = v }},
	{key: "sample", kind: strideKind, help: "NetFlow 1-in-N sampling stride (1 = unsampled)",
		field: func(s *Spec) any { return &s.Sample },
		set:   func(c *scenario.Config, n int) { c.Faults.FlowSampleN = n }},
}

func lookup(key string) *param {
	for i := range params {
		if params[i].key == key {
			return &params[i]
		}
	}
	return nil
}

// isSet reports whether the spec gives the row a value at all.
func (p *param) isSet(s *Spec) bool {
	switch f := p.field(s).(type) {
	case *string:
		return *f != ""
	case *int:
		return *f != 0
	}
	return reflect.ValueOf(p.field(s)).Elem().Len() > 0
}

// compile validates the row's value in s and applies it: a base setting
// lands on g.Base, a grid dimension appends a Knob.
func (p *param) compile(s *Spec, g *Grid) error {
	var vals []KnobValue
	switch f := p.field(s).(type) {
	case *string:
		var err error
		if vals, err = OnOffKnob(*f, p.set.(func(*scenario.Config))); err != nil {
			return fmt.Errorf("bad %s %q: %w", p.key, *f, err)
		}
	case *[]float64:
		for i, v := range *f {
			if p.kind == shareKind && !(v >= 0 && v <= 1) {
				return fmt.Errorf("bad %s[%d] %v: share must be within [0,1]", p.key, i, v)
			}
			if p.kind == rateKind && !(v >= 0 && v < 1) {
				return fmt.Errorf("bad %s[%d] %v: rate must be within [0,1)", p.key, i, v)
			}
		}
		vals = FloatKnob(*f, p.set.(func(*scenario.Config, float64)))
	case *[]int:
		set := p.set.(func(*scenario.Config, int))
		for i, n := range *f {
			if n < 1 {
				return fmt.Errorf("bad %s[%d] %d: sampling stride must be at least 1", p.key, i, n)
			}
			vals = append(vals, KnobValue{
				Label: strconv.Itoa(n),
				Apply: func(c *scenario.Config) { set(c, n) },
			})
		}
	case *int:
		if *f < 0 {
			return fmt.Errorf("bad %s %d: must be non-negative", p.key, *f)
		}
		p.set.(func(*scenario.Config, int))(&g.Base, *f)
	case *[]string:
		for i, name := range *f {
			v := reflector.Vector(name)
			if name == "" || v == reflector.Monlist || !reflector.Valid(v) {
				return fmt.Errorf("bad %s[%d] %q: want one of %v", p.key, i, name, ExtraVectorNames())
			}
		}
		p.set.(func(*scenario.Config, []string))(&g.Base, *f)
	}
	if vals != nil {
		g.Knobs = append(g.Knobs, Knob{Name: p.key, Values: vals})
	}
	return nil
}

// Flags registers a flag for each named row of the knob table (every row
// when keys is empty) on fs, each writing into s. List rows take comma-
// separated values. With single set, on/off rows become boolean flags
// ("-detect" alone means on), for front ends that run one world.
func (s *Spec) Flags(fs *flag.FlagSet, single bool, keys ...string) {
	if len(keys) == 0 {
		for _, p := range params {
			keys = append(keys, p.key)
		}
	}
	for _, key := range keys {
		p := lookup(key)
		if p == nil {
			panic(fmt.Sprintf("sweep: no knob-table row %q", key))
		}
		usage := p.help + kindUsage[p.kind]
		if !single && p.kind != onOffKind && p.kind != countKind {
			usage += "; a comma-separated list"
		}
		switch f := p.field(s).(type) {
		case *string:
			if single {
				fs.Var(boolOnOff{f}, key, p.help)
			} else {
				fs.StringVar(f, key, *f, usage)
			}
		case *int:
			fs.IntVar(f, key, *f, usage)
		case *[]float64:
			fs.Var(listFlag[float64]{f, parseFinite}, key, usage)
		case *[]int:
			fs.Var(IntsFlag(f), key, usage)
		case *[]string:
			fs.Var(listFlag[string]{f, func(v string) (string, error) { return v, nil }}, key, usage)
		}
	}
}

func parseFinite(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("not finite")
	}
	return f, err
}

// listFlag is a flag.Value over a comma-separated list; blank items are
// skipped, and a list with no items is an error.
type listFlag[T any] struct {
	p     *[]T
	parse func(string) (T, error)
}

func (l listFlag[T]) String() string {
	if l.p == nil {
		return ""
	}
	return strings.Trim(fmt.Sprint(*l.p), "[]")
}

func (l listFlag[T]) Set(list string) error {
	var out []T
	for _, part := range strings.Split(list, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := l.parse(part)
		if err != nil {
			return fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return fmt.Errorf("empty list %q", list)
	}
	*l.p = out
	return nil
}

// IntsFlag returns a flag.Value parsing a comma-separated int list into p.
func IntsFlag(p *[]int) flag.Value { return listFlag[int]{p, strconv.Atoi} }

// boolOnOff is an on/off row as a boolean flag: true is "on".
type boolOnOff struct{ p *string }

func (b boolOnOff) IsBoolFlag() bool { return true }

func (b boolOnOff) String() string {
	return strconv.FormatBool(b.p != nil && *b.p == "on")
}

func (b boolOnOff) Set(v string) error {
	on, err := strconv.ParseBool(v)
	if err != nil {
		return err
	}
	*b.p = "off"
	if on {
		*b.p = "on"
	}
	return nil
}
