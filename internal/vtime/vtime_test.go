package vtime

import (
	"fmt"
	"testing"
	"time"
)

func TestClockStartsAtEpoch(t *testing.T) {
	var c Clock
	if !c.Now().Equal(Epoch) {
		t.Fatalf("zero clock reads %v, want %v", c.Now(), Epoch)
	}
	if c.Elapsed() != 0 {
		t.Fatalf("zero clock elapsed %v, want 0", c.Elapsed())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !c.Now().Equal(want) {
		t.Fatalf("after advance clock reads %v, want %v", c.Now(), want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-time.Second)
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	target := Epoch.Add(48 * time.Hour)
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatalf("AdvanceTo got %v, want %v", c.Now(), target)
	}
}

func TestClockAdvanceToPastPanics(t *testing.T) {
	var c Clock
	c.Advance(time.Hour)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo(past) did not panic")
		}
	}()
	c.AdvanceTo(Epoch)
}

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	var order []int
	s.At(Epoch.Add(3*time.Hour), func(time.Time) { order = append(order, 3) })
	s.At(Epoch.Add(1*time.Hour), func(time.Time) { order = append(order, 1) })
	s.At(Epoch.Add(2*time.Hour), func(time.Time) { order = append(order, 2) })
	n := s.RunUntil(Epoch.Add(24 * time.Hour))
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	at := Epoch.Add(time.Hour)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func(time.Time) { order = append(order, i) })
	}
	s.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of order: %v", order)
		}
	}
}

func TestSchedulerRunUntilExcludesEnd(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	end := Epoch.Add(time.Hour)
	ran := false
	s.At(end, func(time.Time) { ran = true })
	s.RunUntil(end)
	if ran {
		t.Fatal("event at end boundary ran; RunUntil must be exclusive")
	}
	if !c.Now().Equal(end) {
		t.Fatalf("clock at %v, want %v", c.Now(), end)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulerEventsCanScheduleEvents(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	count := 0
	var tick func(now time.Time)
	tick = func(now time.Time) {
		count++
		if count < 5 {
			s.After(time.Minute, tick)
		}
	}
	s.After(time.Minute, tick)
	s.RunUntil(Epoch.Add(time.Hour))
	if count != 5 {
		t.Fatalf("chained ticks = %d, want 5", count)
	}
}

func TestSchedulerAtPastPanics(t *testing.T) {
	var c Clock
	c.Advance(time.Hour)
	s := NewScheduler(&c)
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	s.At(Epoch, func(time.Time) {})
}

func TestSchedulerEvery(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	count := 0
	start := Epoch.Add(time.Hour)
	s.Every(start, time.Hour, start.Add(5*time.Hour), func(time.Time) { count++ })
	s.Drain()
	if count != 5 {
		t.Fatalf("Every produced %d ticks, want 5", count)
	}
}

func TestDayMonthHourTruncation(t *testing.T) {
	ts := time.Date(2014, time.February, 11, 17, 45, 12, 999, time.UTC)
	if d := Day(ts); !d.Equal(time.Date(2014, 2, 11, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("Day = %v", d)
	}
	if m := Month(ts); !m.Equal(time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("Month = %v", m)
	}
	if h := Hour(ts); !h.Equal(time.Date(2014, 2, 11, 17, 0, 0, 0, time.UTC)) {
		t.Fatalf("Hour = %v", h)
	}
}

func TestDrainAdvancesClock(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	last := Epoch.Add(77 * time.Hour)
	s.At(last, func(time.Time) {})
	s.Drain()
	if !c.Now().Equal(last) {
		t.Fatalf("after Drain clock reads %v, want %v", c.Now(), last)
	}
}

// batchLog is a BatchSink recording each delivered batch.
type batchLog struct {
	nows  []time.Time
	items [][]any
	// onRun, when set, runs inside RunBatch after the batch is recorded.
	onRun func()
}

func (b *batchLog) RunBatch(now time.Time, items []any) {
	b.nows = append(b.nows, now)
	b.items = append(b.items, append([]any(nil), items...))
	if b.onRun != nil {
		b.onRun()
	}
}

func TestAfterBatchFiresAtOffsetPlusD(t *testing.T) {
	var c Clock
	c.Advance(90*time.Minute + 7*time.Nanosecond)
	s := NewScheduler(&c)
	var sink batchLog
	for i, d := range []time.Duration{0, 1, 40 * time.Millisecond, 40 * time.Millisecond, 3 * time.Hour} {
		s.AfterBatch(d, &sink, i)
	}
	s.Drain()
	offsets := []time.Duration{0, 1, 40 * time.Millisecond, 3 * time.Hour}
	if len(sink.nows) != len(offsets) {
		t.Fatalf("%d batches fired, want %d: %v", len(sink.nows), len(offsets), sink.items)
	}
	for i, d := range offsets {
		want := Epoch.Add(90*time.Minute + 7*time.Nanosecond + d)
		if sink.nows[i] != want {
			t.Errorf("batch %d fired at %v, want Epoch+offset+d = %v", i, sink.nows[i], want)
		}
	}
	if got := len(sink.items[2]); got != 2 {
		t.Errorf("same-instant items coalesced into %d-item batch, want 2", got)
	}
}

func TestAfterBatchNegativePanics(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	defer func() {
		if recover() == nil {
			t.Fatal("AfterBatch(-1) did not panic")
		}
	}()
	s.AfterBatch(-1, &batchLog{}, 0)
}

// TestAfterBatchClosesOnSameInstantEvent checks the open-batch memo is
// cleared by a same-instant At: the append after it opens a new batch that
// fires behind the At.
func TestAfterBatchClosesOnSameInstantEvent(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	var order []any
	sink := &batchLog{}
	sink.onRun = func() { order = append(order, sink.items[len(sink.items)-1]...) }
	s.AfterBatch(time.Second, sink, 1)
	s.At(Epoch.Add(time.Second), func(time.Time) { order = append(order, "at") })
	s.AfterBatch(time.Second, sink, 2)
	s.Drain()
	if got := fmt.Sprint(order); got != "[1 at 2]" {
		t.Fatalf("delivery order %s, want [1 at 2]", got)
	}
}

// TestAfterBatchFromRunBatchOpensFreshBatch checks a sink appending at its
// own instant gets a new batch after the firing one, not the recycled one.
func TestAfterBatchFromRunBatchOpensFreshBatch(t *testing.T) {
	var c Clock
	s := NewScheduler(&c)
	var sink batchLog
	sink.onRun = func() {
		if len(sink.nows) == 1 {
			s.AfterBatch(0, &sink, "again")
		}
	}
	s.AfterBatch(time.Millisecond, &sink, "first")
	s.Drain()
	if fmt.Sprint(sink.items) != "[[first] [again]]" || sink.nows[0] != sink.nows[1] {
		t.Fatalf("batches %v at %v, want [[first] [again]] at one instant", sink.items, sink.nows)
	}
}
