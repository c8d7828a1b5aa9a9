package main

import (
	"fmt"
	"time"

	"ntpddos/internal/detect"
	"ntpddos/internal/scenario"
)

// defaultSeed is the seed whose digests are pinned below; heldOutSeed is
// reserved for validating a performance claim on a world nobody tuned
// against. Neither is special to the simulator.
const (
	defaultSeed uint64 = 1
	heldOutSeed uint64 = 7
)

// wantTables is the number of tables All() must return: the paper's 33.
const wantTables = 33

// workload is one named world configuration. Every workload starts from
// scenario.DefaultConfig with the fabric campaigns thinned by 4 and the
// default honeypot fleet. Sizes are chosen so that one run takes a few
// host seconds and a timed measurement holds several runs; README.md gives
// the reason for each.
type workload struct {
	name string
	// pin is the report digest at defaultSeed, taken on linux/amd64.
	pin    string
	config func(seed uint64) scenario.Config
}

// firstONPSurvey ends a window just after the first weekly ONP monlist
// survey (2014-01-10); a window must hold a survey for every table to be
// defined. endOfJanuary adds the next three surveys and the January attack
// ramp.
var (
	firstONPSurvey = time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC)
	endOfJanuary   = time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
)

func baseConfig(seed uint64) scenario.Config {
	c := scenario.DefaultConfig()
	c.Seed = seed
	c.FabricAttackDivisor = 4
	return c
}

var workloads = []workload{
	{
		name: "reflect",
		pin:  "d70237e79705c1155424932f1e2df0a2b908952e020f4c640a4c41beb6f9d09b",
		config: func(seed uint64) scenario.Config {
			c := baseConfig(seed)
			c.Scale = 5400
			c.End = endOfJanuary
			return c
		},
	},
	{
		name: "census",
		pin:  "507f45186f6f525c423b6c0031aa7c277b3dbb5cf0c7c10094ae38ceb684e7ff",
		config: func(seed uint64) scenario.Config {
			c := baseConfig(seed)
			c.Scale = 40
			c.End = firstONPSurvey
			// Thinner campaigns keep the population, not reflected attack
			// traffic, the bulk of the work.
			c.FabricAttackDivisor = 16
			return c
		},
	},
	{
		name: "timesync",
		pin:  "c87e589f5daa2e79360f7c7d1f33ccb62ad52cb3a179c425e74d99427f504d55",
		config: func(seed uint64) scenario.Config {
			c := baseConfig(seed)
			c.Scale = 4000
			c.End = firstONPSurvey
			c.TimeSync.Clients = 8
			// Polling at the discipline's 1024 s ceiling fixes the poll
			// volume. With the adaptive default, how far each attacked
			// client's backoff collapses depends on the attack models the
			// seed draws, and the work per world varies twofold by seed.
			c.TimeSync.MinPoll, c.TimeSync.MaxPoll = 10, 10
			c.TimeAttackShare = 0.5
			d := detect.DefaultConfig()
			c.Detector = &d
			return c
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
