package main

import (
	"flag"
	"io"
	"testing"

	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

// parseSpec parses args with the command's spec flags and compiles the
// result into a grid, returning the first error from either step.
func parseSpec(args ...string) (sweep.Spec, error) {
	spec := sweep.Spec{Seeds: "1"}
	fs := flag.NewFlagSet("ntpsweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	specFlags(fs, &spec)
	if err := fs.Parse(args); err != nil {
		return spec, err
	}
	_, err := spec.Grid(scenario.TestConfig())
	return spec, err
}

func TestParseInts(t *testing.T) {
	spec, err := parseSpec("-scales", "2000, 4000")
	if err != nil || len(spec.Scales) != 2 || spec.Scales[0] != 2000 || spec.Scales[1] != 4000 {
		t.Fatalf("-scales = %v, %v", spec.Scales, err)
	}
	for _, bad := range []string{"", "x", "-1", "0"} {
		if _, err := parseSpec("-scales", bad); err == nil {
			t.Errorf("-scales %q accepted, want error", bad)
		}
	}
}

func TestParseFloats(t *testing.T) {
	spec, err := parseSpec("-spoof", "0.1, 0.5,0.9")
	if err != nil || len(spec.Spoof) != 3 || spec.Spoof[0] != 0.1 || spec.Spoof[2] != 0.9 {
		t.Fatalf("-spoof = %v, %v", spec.Spoof, err)
	}
	for _, bad := range []string{"", "zz", "0.1,zz"} {
		if _, err := parseSpec("-spoof", bad); err == nil {
			t.Errorf("-spoof %q accepted, want error", bad)
		}
	}
}
