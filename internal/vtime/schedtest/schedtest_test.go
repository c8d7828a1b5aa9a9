package schedtest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ntpddos/internal/vtime"
)

// compare replays program against both scheduler implementations and fails
// at the first trace divergence.
func compare(t *testing.T, program []byte) {
	t.Helper()
	cal := Replay(vtime.NewScheduler, program)
	ref := Replay(vtime.NewHeapScheduler, program)
	if i := Diff(cal, ref); i >= 0 {
		calLine, refLine := "<missing>", "<missing>"
		if i < len(cal) {
			calLine = cal[i]
		}
		if i < len(ref) {
			refLine = ref[i]
		}
		t.Fatalf("trace diverges at %d (of %d/%d):\n  calendar: %s\n  heap:     %s\nprogram: %x",
			i, len(cal), len(ref), calLine, refLine, program)
	}
}

// TestSchedulerEquivalenceSeeded property-tests the calendar queue against
// the reference heap on generated workloads. Seeds are fixed so a failure
// reproduces; the fuzz target below explores beyond them.
func TestSchedulerEquivalenceSeeded(t *testing.T) {
	rounds, size := 200, 512
	if testing.Short() {
		rounds = 40
	}
	for seed := 0; seed < rounds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		program := make([]byte, size)
		r.Read(program)
		compare(t, program)
	}
}

// TestSchedulerEquivalenceTies hammers the tie-breaking path: op 7 bursts
// with zero deltas put every event at the same instant, where only the
// sequence number separates them.
func TestSchedulerEquivalenceTies(t *testing.T) {
	var program []byte
	for i := 0; i < 64; i++ {
		// op 7 (same-instant burst), delta bytes 0,0, burst-size byte.
		program = append(program, 7, 0, 0, byte(i))
		if i%8 == 0 {
			program = append(program, 5, 1, 20) // RunUntil to interleave
		}
	}
	program = append(program, 6) // Drain
	compare(t, program)
}

// TestSchedulerEquivalenceOverflow forces events past the calendar wheel's
// ~69s window so the overflow heap and window rebase are on the compared
// path.
func TestSchedulerEquivalenceOverflow(t *testing.T) {
	var program []byte
	for i := 0; i < 32; i++ {
		program = append(program, 0, byte(i+1), 32) // delta = (i+1)<<32 ns, beyond the window
		program = append(program, 0, byte(i), byte(i%33))
	}
	program = append(program, 6)
	compare(t, program)
}

// Batch-memo program shapes. Op 4 is (4, delta bytes, sink byte); delta
// bytes 5,3 put an item 40ns out, 5,4 80ns out. A firing batch consumes one
// byte: 1 re-appends to its own sink at its own instant, 2 appends to sink a
// then sink b there, anything else schedules nothing.
var batchMemoPrograms = map[string][]byte{
	// An At at the batch's instant between two appends must close the batch.
	// The trailing bytes are read by the firing callbacks and schedule
	// nothing more.
	"at-between-appends": {4, 5, 3, 0, 0, 5, 3, 4, 5, 3, 0, 6, 3, 1, 3},
	// RunBatch calling AfterBatch(0) on its own instant opens a fresh batch
	// behind the one firing, inside the same RunUntil.
	"rebatch-own-instant": {4, 5, 3, 0, 5, 6, 3, 1, 2, 0, 0, 6},
	// Two sinks alternating at one instant: no coalescing across the switch.
	"alternating-sinks": {4, 5, 3, 0, 4, 5, 3, 1, 4, 5, 3, 0, 4, 5, 3, 1, 6},
	// An append to another instant in between leaves the first batch open.
	"interleaved-instants": {4, 5, 3, 0, 4, 5, 4, 0, 4, 5, 3, 0, 6},
}

// TestSchedulerEquivalenceBatchMemo pins the shapes that invalidate the
// scheduler's last-open-batch memo, and checks the calendar trace against
// the expected delivery order, not only against the heap.
func TestSchedulerEquivalenceBatchMemo(t *testing.T) {
	// Deliveries as "<line> @<ns after Epoch> <items>".
	want := map[string]string{
		"at-between-appends":   "[batch a @40 0 fire 1 @40 batch a @40 2]",
		"rebatch-own-instant":  "[batch a @40 0 batch a @40 1 batch a @40 2 batch b @40 3]",
		"alternating-sinks":    "[batch a @40 0 batch b @40 1 batch a @40 2 batch b @40 3]",
		"interleaved-instants": "[batch a @40 0 2 batch a @80 1]",
	}
	for name, program := range batchMemoPrograms {
		t.Run(name, func(t *testing.T) {
			compare(t, program)
			var got []string
			for _, line := range Replay(vtime.NewScheduler, program) {
				if strings.HasPrefix(line, "batch ") || strings.HasPrefix(line, "fire ") {
					got = append(got, relative(line))
				}
			}
			if fmt.Sprint(got) != want[name] {
				t.Fatalf("deliveries = %v, want %s", got, want[name])
			}
		})
	}
}

// relative rewrites a trace line's "@<unix ns>" instant as nanoseconds
// after vtime.Epoch.
func relative(line string) string {
	head, rest, _ := strings.Cut(line, "@")
	num, tail, _ := strings.Cut(rest, " ")
	abs, _ := strconv.ParseInt(num, 10, 64)
	if tail != "" {
		tail = " " + tail
	}
	return fmt.Sprintf("%s@%d%s", head, abs-vtime.Epoch.UnixNano(), tail)
}

func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 3, 6})                // same-instant burst, then drain
	f.Add([]byte{3, 0, 0, 10, 3, 6})            // periodic timer
	f.Add([]byte{4, 0, 0, 4, 0, 0, 0, 1, 0, 6}) // batch items with an interleaved event
	for _, program := range batchMemoPrograms {
		f.Add(program)
	}
	f.Add([]byte{0, 255, 32, 0, 0, 0, 5, 255, 32}) // overflow + rebase
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 4096 {
			program = program[:4096]
		}
		compare(t, program)
	})
}
