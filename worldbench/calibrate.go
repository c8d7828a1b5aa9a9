package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// refCalibSeconds is calibrate's typical time on the machine the benchmark
// was defined on (a 2-vCPU Intel Xeon, go1.24.0). Timings are reported as
// if measured there: host seconds × refCalibSeconds / calibrate's median in
// the same invocation.
const refCalibSeconds = 0.40

// calibNode is a heap object of about the size the simulator allocates most.
type calibNode struct {
	next *calibNode
	val  [6]uint64
}

var calibSink uint64

// calibrate runs a fixed kernel of the kinds of work the simulator does —
// random map lookups, allocation with pointer chasing and collection, and
// sorting — and returns its host seconds. It calls no simulator code, so a
// change to the simulator cannot move it: what moves it is how fast the
// host runs at that moment, which on a shared machine swings by up to 2x
// over minutes and moves the simulator with it. Its live heap stays under
// 10 MB, below every workload's own peak.
func calibrate() float64 {
	start := time.Now()
	r := rand.New(rand.NewPCG(1, 2))

	const keys = 1<<20 - 1
	m := make(map[uint64]uint64, 1<<16)
	for i := 0; i < 1<<16; i++ {
		m[r.Uint64()&keys] += uint64(i)
	}
	var sum uint64
	for i := 0; i < 3_000_000; i++ {
		sum += m[r.Uint64()&keys]
	}

	var head *calibNode
	for round := 0; round < 36; round++ {
		head = nil
		for i := 0; i < 50_000; i++ {
			head = &calibNode{next: head}
			head.val[i%6] = uint64(i)
		}
	}
	for n := head; n != nil; n = n.next {
		sum += n.val[0]
	}

	xs := make([]uint64, 1<<18)
	for round := 0; round < 4; round++ {
		for i := range xs {
			xs[i] = r.Uint64()
		}
		slices.Sort(xs)
		sum += xs[0]
	}
	calibSink = sum
	return time.Since(start).Seconds()
}
