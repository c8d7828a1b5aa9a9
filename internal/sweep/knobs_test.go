package sweep

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ntpddos/internal/scenario"
)

// TestKnobTableCoversSpec checks the knob table has one row per Spec JSON
// key that sets a Config value, in the order Grid crosses them.
func TestKnobTableCoversSpec(t *testing.T) {
	fixed := map[string]bool{"name": true, "seeds": true, "scale": true, "scales": true, "end": true}
	var want []string
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		tag, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		if !fixed[tag] {
			want = append(want, tag)
		}
	}
	var got []string
	for _, p := range params {
		got = append(got, p.key)
	}
	wantSet := strings.Fields("detect noremediation spoof hazard timeattack pulse carpet multi " +
		"loss dup reorder flap outage blackout sample vectors timesync")
	if len(got) != len(want) || len(got) != len(wantSet) {
		t.Fatalf("table keys %v, Spec keys %v", got, want)
	}
	for _, k := range want {
		if lookup(k) == nil {
			t.Errorf("Spec key %q has no knob-table row", k)
		}
	}
	// The grid dimensions keep their historical order: it fixes job IDs.
	var dims []string
	for _, k := range got {
		if k != "vectors" && k != "timesync" {
			dims = append(dims, k)
		}
	}
	if strings.Join(dims, " ") != strings.Join(wantSet[:15], " ") {
		t.Fatalf("grid dimension order %v, want %v", dims, wantSet[:15])
	}
}

// twoValues gives every knob-table row a JSON value holding two settings
// (one for the base-setting rows, which take a single value).
var twoValues = map[kind]string{
	onOffKind:  `"both"`,
	realKind:   `[0.5,2]`,
	shareKind:  `[0,0.5]`,
	rateKind:   `[0,0.25]`,
	strideKind: `[1,16]`,
	countKind:  `8`,
	vectorKind: `["dns-any","ssdp"]`,
}

// TestNumJobsExactOnEveryRow checks NumJobs() == len(Jobs()) with two
// values on each row alone and on every row at once.
func TestNumJobsExactOnEveryRow(t *testing.T) {
	all := []string{`"seeds":"1-2"`}
	for _, p := range params {
		v, ok := twoValues[p.kind]
		if !ok {
			t.Fatalf("row %q has kind %d with no test values", p.key, p.kind)
		}
		all = append(all, fmt.Sprintf("%q:%s", p.key, v))
		body := fmt.Sprintf(`{"seeds":"1-2","timesync":8,%q:%s}`, p.key, v)
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		n, err := s.NumJobs()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		jobs, err := s.Jobs(scenario.TestConfig())
		if err != nil || n != len(jobs) {
			t.Fatalf("%s: NumJobs %d, Jobs %d (%v)", body, n, len(jobs), err)
		}
		if want := map[bool]int{true: 2, false: 4}[p.kind == countKind || p.kind == vectorKind]; n != want {
			t.Fatalf("%s: %d jobs, want %d", body, n, want)
		}
	}
	var s Spec
	if err := json.Unmarshal([]byte("{"+strings.Join(all, ",")+"}"), &s); err != nil {
		t.Fatal(err)
	}
	g, err := s.Grid(scenario.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.NumJobs(); err != nil || n != 2<<15 || len(g.Knobs) != 15 {
		t.Fatalf("all rows: NumJobs %d (%v) over %d knobs, want %d over 15", n, err, len(g.Knobs), 2<<15)
	}
}

// TestNumJobsRejectsOverflowingSpec is the admission regression: eleven
// float knobs of 64 values each span 64^11 = 2^66 jobs, which an int
// product wraps to 0 — under any cap. NumJobs, Grid and Jobs must refuse.
func TestNumJobsRejectsOverflowingSpec(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) / 128
	}
	s := Spec{Seeds: "1", Spoof: vals, Hazard: vals, Pulse: vals, Carpet: vals, Multi: vals,
		Loss: vals, Dup: vals, Reorder: vals, Flap: vals, Outage: vals, Blackout: vals}
	n, err := s.NumJobs()
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("NumJobs = %d, %v; want ErrTooLarge", n, err)
	}
	if _, err := s.Grid(scenario.TestConfig()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Grid error %v, want ErrTooLarge", err)
	}
	if jobs, err := s.Jobs(scenario.TestConfig()); !errors.Is(err, ErrTooLarge) || jobs != nil {
		t.Fatalf("Jobs = %d jobs, %v; want ErrTooLarge", len(jobs), err)
	}
	// Exactly MaxJobs is still admitted by the pre-flight count.
	vals = make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i) / 1024
	}
	if n, err := (Spec{Seeds: "1", Loss: vals, Dup: vals}).NumJobs(); err != nil || n != MaxJobs {
		t.Fatalf("1024 x 1024 spec: NumJobs = %d, %v; want %d", n, err, MaxJobs)
	}
	if _, err := (Spec{Seeds: "1-2", Loss: vals, Dup: vals}).NumJobs(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("MaxJobs+ spec: %v, want ErrTooLarge", err)
	}
}

// TestNumJobsSeedPreflightBounded checks a seed list past the 10,000-seed
// bound fails without expanding it: this 14 KB spec names 20 million seeds.
func TestNumJobsSeedPreflightBounded(t *testing.T) {
	seeds := strings.Repeat("1-9999,", 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Spec{Seeds: seeds}.NumJobs()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Quote(seeds)) {
		t.Fatalf("NumJobs error does not name the seed spec: %.200v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("seed pre-flight allocated %d bytes, want under 1 MB", d)
	}
	if _, err := ParseSeeds("1-5000,5001-10000"); err != nil {
		t.Fatalf("exactly 10,000 seeds rejected: %v", err)
	}
	if _, err := ParseSeeds("1-5000,5001-10000,7"); err == nil {
		t.Fatal("10,001 seeds accepted")
	}
}

func parseFlags(t *testing.T, single bool, args ...string) (Spec, error) {
	t.Helper()
	var s Spec
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&s.Name, "name", "", "")
	fs.StringVar(&s.Seeds, "seeds", "", "")
	fs.Var(IntsFlag(&s.Scales), "scales", "")
	s.Flags(fs, single)
	err := fs.Parse(args)
	return s, err
}

// TestFlagsMatchJSONSpec pins the flags → Spec → Grid path: a spec built
// from the CLI flags expands to exactly the jobs of the same JSON spec,
// which is what makes ntpserved runs comparable to ntpsweep runs.
func TestFlagsMatchJSONSpec(t *testing.T) {
	cases := []struct {
		args []string
		json string
	}{
		{[]string{"-name", "sens", "-seeds", "1-3", "-scales", "2000, 4000",
			"-detect", "both", "-noremediation", "off", "-spoof", "0.25,0.5"},
			`{"name":"sens","seeds":"1-3","scales":[2000,4000],"detect":"both","noremediation":"off","spoof":[0.25,0.5]}`},
		{[]string{"-seeds", "1", "-vectors", "dns-any, ssdp", "-pulse", "0,0.3", "-carpet", "0.2",
			"-multi", "0.1", "-hazard", "0.5,2"},
			`{"seeds":"1","vectors":["dns-any","ssdp"],"pulse":[0,0.3],"carpet":[0.2],"multi":[0.1],"hazard":[0.5,2]}`},
		{[]string{"-seeds", "1,4", "-timesync", "8", "-timeattack", "0,0.5", "-loss", "0,0.1",
			"-dup", "0.05", "-reorder", "0.02", "-flap", "0.25", "-outage", "0.5", "-blackout", "0.3",
			"-sample", "1,16"},
			`{"seeds":"1,4","timesync":8,"timeattack":[0,0.5],"loss":[0,0.1],"dup":[0.05],"reorder":[0.02],` +
				`"flap":[0.25],"outage":[0.5],"blackout":[0.3],"sample":[1,16]}`},
	}
	base := scenario.TestConfig()
	for _, c := range cases {
		fromFlags, err := parseFlags(t, false, c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var fromJSON Spec
		if err := json.Unmarshal([]byte(c.json), &fromJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromFlags, fromJSON) {
			t.Fatalf("flags %v built\n%+v\nJSON built\n%+v", c.args, fromFlags, fromJSON)
		}
		a, errA := fromFlags.Jobs(base)
		b, errB := fromJSON.Jobs(base)
		if errA != nil || errB != nil || len(a) < 2 || len(a) != len(b) {
			t.Fatalf("%v: %d vs %d jobs (%v, %v)", c.args, len(a), len(b), errA, errB)
		}
		for i := range a {
			if a[i].ID != b[i].ID || !reflect.DeepEqual(a[i].Cfg, b[i].Cfg) {
				t.Fatalf("%v: job %d differs: %s vs %s", c.args, i, a[i].ID, b[i].ID)
			}
		}
	}
	jobs, _ := mustFlags(t, "-name", "sens", "-seeds", "1-3", "-scales", "2000,4000",
		"-detect", "both", "-spoof", "0.25,0.5").Jobs(base)
	if len(jobs) != 24 || jobs[0].ID != "sens/scale=2000/detect=off/spoof=0.25/seed=1" {
		t.Fatalf("flag grid: %d jobs, first %q", len(jobs), jobs[0].ID)
	}
}

func mustFlags(t *testing.T, args ...string) Spec {
	t.Helper()
	s, err := parseFlags(t, false, args...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFlagsRejectBadValues checks malformed list values fail at flag
// parsing, and out-of-range ones when the spec compiles — the same check
// a daemon job gets.
func TestFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-scales", "x"}, {"-scales", ""}, {"-scales", "1.5"},
		{"-spoof", "zz"}, {"-hazard", "0.1,zz"}, {"-pulse", ""}, {"-carpet", " , "},
		{"-multi", "NaN"}, {"-loss", "Inf"}, {"-sample", "x"}, {"-sample", "2.5"},
		{"-timesync", "many"},
	} {
		if _, err := parseFlags(t, false, args...); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("flags %v: error %v, want a parse error naming the flag", args, err)
		}
	}
	for _, args := range [][]string{
		{"-seeds", "zz"}, {"-seeds", "1", "-scales", "0"}, {"-seeds", "1", "-scales", "-1"},
		{"-seeds", "1", "-detect", "sometimes"}, {"-seeds", "1", "-vectors", "smurf"},
		{"-seeds", "1", "-pulse", "1.5"}, {"-seeds", "1", "-loss", "1"},
		{"-seeds", "1", "-sample", "0"}, {"-seeds", "1", "-timesync", "-2"},
		{"-seeds", "1", "-timeattack", "0.5"},
	} {
		s := mustFlags(t, args...)
		if _, err := s.Grid(scenario.TestConfig()); err == nil {
			t.Errorf("spec from %v compiled, want an error", args)
		}
	}
}

// TestSingleFlagsRunOneWorld checks the single-world flag set: on/off rows
// are boolean flags, and every other row takes one value.
func TestSingleFlagsRunOneWorld(t *testing.T) {
	s, err := parseFlags(t, true, "-seeds", "1", "-detect", "-loss", "0.1", "-sample", "16")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs(scenario.TestConfig())
	if err != nil || len(jobs) != 1 {
		t.Fatalf("single-world flags: %d jobs, %v", len(jobs), err)
	}
	if c := jobs[0].Cfg; c.Detector == nil || c.Faults.Loss != 0.1 || c.Faults.FlowSampleN != 16 {
		t.Fatalf("single-world config: %+v", c.Faults)
	}
	if s, err := parseFlags(t, true, "-seeds", "1", "-detect=false"); err != nil || s.Detect != "off" {
		t.Fatalf("-detect=false: %q, %v", s.Detect, err)
	}
	if _, err := parseFlags(t, true, "-detect=both"); err == nil {
		t.Fatal("-detect=both accepted as a boolean")
	}
}

// FuzzSpec drives the daemon's submission path: JSON into Spec, the
// NumJobs pre-flight, then — for small grids — the expansion. NumJobs
// must be exact or an error; it may never under-count.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"seeds":"1-4","detect":"both","spoof":[0,0.25]}`,
		`{"seeds":"1","scales":[2000,4000],"end":"2014-01-17","noremediation":"on"}`,
		`{"seeds":"1,3-5","vectors":["dns-any"],"pulse":[0,0.3],"carpet":[0.2],"multi":[1]}`,
		`{"seeds":"2","timesync":8,"timeattack":[0,0.5],"loss":[0,0.1],"sample":[1,16]}`,
		`{"seeds":"1","dup":[0.5],"reorder":[0.1],"flap":[0.2],"outage":[0.3],"blackout":[0.9],"hazard":[2]}`,
		`{"seeds":"1","loss":[],"vectors":[],"sample":[],"detect":"off"}`,
	} {
		f.Add([]byte(seed))
	}
	base := scenario.TestConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		n, err := s.NumJobs()
		if err != nil {
			return
		}
		if n < 1 || n > MaxJobs {
			t.Fatalf("NumJobs = %d outside [1, MaxJobs]", n)
		}
		if n > 64 {
			return
		}
		jobs, err := s.Jobs(base)
		if err != nil || len(jobs) != n {
			t.Fatalf("NumJobs = %d but Jobs = %d (%v)", n, len(jobs), err)
		}
	})
}
