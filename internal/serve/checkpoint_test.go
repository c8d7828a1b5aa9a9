package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

// TestCheckpointLifecycle pins the file's span: created with a header at
// admission, one record line per landed sub-job, removed once the job is
// terminal.
func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	gate := newGateRunner()
	e := newEnv(t, Config{Runner: gate.run, CheckpointDir: dir})
	st := e.submitOK(t, `{"seeds":"1-3"}`)
	path := filepath.Join(dir, st.ID+".ckpt")

	<-gate.entered
	h, recs, _, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint missing while running: %v", err)
	}
	if h.ID != st.ID || h.Spec.Seeds != "1-3" || len(recs) != 0 {
		t.Fatalf("header %+v / %d records, want submitted spec and no records yet", h, len(recs))
	}
	close(gate.release)
	e.waitState(t, st.ID, StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint file survived job completion")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoveryResumesFromCheckpoint is the kill-and-resume contract at the
// package level: a checkpoint holding a subset of a job's records is
// re-admitted at startup, only the missing sub-jobs execute, and the
// recovered manifest is byte-identical to an uninterrupted run.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	base := scenario.Config{Scale: 1000}
	spec := JobSpec{Spec: sweep.Spec{Seeds: "1-4"}}
	jobs, err := spec.Jobs(base)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sweep.Run(jobs, syntheticRunner, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A previous process completed sub-jobs 0 and 2, then died — torn final
	// line included, as a SIGKILL mid-write would leave it.
	dir := t.TempDir()
	ck, err := newCheckpoint(filepath.Join(dir, "j000007.ckpt"), ckptHeader{
		ID: "j000007", Client: "addr:test", Spec: spec,
		Submitted: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	ck.append(clean.Jobs[0])
	ck.append(clean.Jobs[2])
	ck.close()
	f, err := os.OpenFile(filepath.Join(dir, "j000007.ckpt"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":3,"id":"se`) // torn mid-record
	f.Close()

	var mu sync.Mutex
	ran := map[string]bool{}
	counting := func(j sweep.Job) (sweep.Result, error) {
		mu.Lock()
		ran[j.ID] = true
		mu.Unlock()
		return syntheticRunner(j)
	}
	e := newEnv(t, Config{Base: base, Runner: counting, CheckpointDir: dir})
	st := e.waitState(t, "j000007", StateDone)
	if !st.Recovered {
		t.Fatalf("status = %+v, want Recovered", st)
	}
	if st.Digest != clean.Digest() {
		t.Fatalf("recovered digest %s != uninterrupted %s", st.Digest, clean.Digest())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 2 || ran[jobs[0].ID] || ran[jobs[2].ID] {
		t.Fatalf("ran %v, want only the two missing sub-jobs", ran)
	}
	// New submissions continue past the recovered sequence number.
	st2 := e.submitOK(t, `{"seeds":"1"}`)
	if seqOf(st2.ID) <= 7 {
		t.Fatalf("new job %s did not advance past recovered j000007", st2.ID)
	}
}

// TestRecoverySkipsForeignID pins recovery's trust boundary: the header's
// job ID names the file the daemon later removes, so a checkpoint whose ID
// is not its own file stem (here one that climbs out of the checkpoint
// directory) is skipped with a logged reason, and no file outside the
// directory is touched.
func TestRecoverySkipsForeignID(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "ckpts")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "outside.ckpt")
	if err := os.WriteFile(outside, []byte("not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := newCheckpoint(filepath.Join(dir, "j000007.ckpt"), ckptHeader{
		ID: "../outside", Spec: JobSpec{Spec: sweep.Spec{Seeds: "1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ck.close()

	var mu sync.Mutex
	var logs []string
	e := newEnv(t, Config{CheckpointDir: dir, Log: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	// The single job worker runs jobs in queue order, so once a job
	// submitted after startup is done, any recovered job has finished and
	// released its checkpoint.
	st := e.submitOK(t, `{"seeds":"1"}`)
	e.waitState(t, st.ID, StateDone)

	if _, ok := e.d.store.get("../outside"); ok {
		t.Fatal("recovered a job whose header ID is not its file stem")
	}
	if _, err := os.Stat(outside); err != nil {
		t.Fatalf("file outside the checkpoint directory: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.HasPrefix(l, "checkpoint j000007.ckpt skipped") {
			return
		}
	}
	t.Fatalf("no skip reason logged for j000007.ckpt; log: %q", logs)
}

// TestLoadCheckpointUnterminatedLine pins the torn-write rule at a line
// boundary: a final line that lacks its newline is torn even when its JSON
// is complete, so validLen never runs past the end of the file (truncating
// to such a length would pad the file with a NUL byte that corrupts the
// next appended record).
func TestLoadCheckpointUnterminatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j000001.ckpt")
	ck, err := newCheckpoint(path, ckptHeader{ID: "j000001", Spec: JobSpec{Spec: sweep.Spec{Seeds: "1-2"}}})
	if err != nil {
		t.Fatal(err)
	}
	ck.append(sweep.JobRecord{Index: 0, ID: "a"})
	ck.close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":1,"id":"b"}`) // complete record, newline lost
	f.Close()

	_, recs, validLen, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" || validLen != int64(len(whole)) {
		t.Fatalf("records %+v, validLen %d; want only record a and validLen %d",
			recs, validLen, len(whole))
	}
}

// TestRetriesSurfaceInStatus pins the self-healing accounting: a sub-job
// that fails twice then heals reports its retries in the job-status API and
// on the sweep retry counter.
func TestRetriesSurfaceInStatus(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	flaky := func(j sweep.Job) (sweep.Result, error) {
		mu.Lock()
		attempts[j.ID]++
		n := attempts[j.ID]
		mu.Unlock()
		if strings.HasSuffix(j.ID, "seed=2") && n < 3 {
			return sweep.Result{}, fmt.Errorf("injected fault %d", n)
		}
		return syntheticRunner(j)
	}
	reg := metrics.NewRegistry()
	e := newEnv(t, Config{Runner: flaky, MaxRetries: 3, Registry: reg})
	st := e.submitOK(t, `{"seeds":"1-3"}`)
	final := e.waitState(t, st.ID, StateDone)
	if final.Retries != 2 {
		t.Fatalf("status retries = %d, want 2", final.Retries)
	}
	if final.Error != "" {
		t.Fatalf("healed job kept error %q", final.Error)
	}
	if got := e.d.swMet.JobsRetried.Value(); got != 2 {
		t.Fatalf("ntpsweep_jobs_retried_total = %d, want 2", got)
	}
}

// TestDrainKeepsCheckpoints pins the restart handshake: files of jobs
// interrupted by a drain (queued or running) survive for the next process.
func TestDrainKeepsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	gate := newGateRunner()
	e := newEnv(t, Config{Runner: gate.run, CheckpointDir: dir, QueueDepth: 4})
	running := e.submitOK(t, `{"seeds":"1-2"}`)
	<-gate.entered
	queued := e.submitOK(t, `{"seeds":"3-4"}`)

	// Sub-jobs unblock only after the drain deadline cancels the running
	// job's context; then the sweep unwinds with its partial manifest.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	go func() {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
		close(gate.release)
	}()
	if err := e.d.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	e.waitFor(t, running.ID, "terminal", func(st JobStatus) bool { return st.State.Terminal() })

	for _, id := range []string{running.ID, queued.ID} {
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); err != nil {
			t.Fatalf("checkpoint for %s gone after drain: %v", id, err)
		}
	}
}

// TestSubmitResponseReportsAdmittedState pins the admission/dispatch race
// behind TestCheckpointLifecycle's flake: a worker that dequeues and starts
// the job before the submit handler renders its response must not change
// what the response says. The Log hook holds the handler at the "admitted"
// line until the gated runner has been entered, so the job is already
// running when the response is written.
func TestSubmitResponseReportsAdmittedState(t *testing.T) {
	gate := newGateRunner()
	e := newEnv(t, Config{Runner: gate.run, Log: func(format string, _ ...any) {
		if strings.HasPrefix(format, "job %s admitted") {
			<-gate.entered
		}
	}})
	t.Cleanup(func() { close(gate.release) }) // runs before newEnv's Drain
	st := e.submitOK(t, `{"seeds":"1"}`)
	if got := e.status(t, st.ID).State; got != StateRunning {
		t.Fatalf("job state after the runner was entered = %s, want running", got)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to checkpoint recovery's parser:
// it must never panic, and a file it accepts must yield a validLen within
// the file and only records with an ID.
func FuzzLoadCheckpoint(f *testing.F) {
	header, err := json.Marshal(ckptHeader{ID: "j000001", Spec: JobSpec{Spec: sweep.Spec{Seeds: "1-3"}}})
	if err != nil {
		f.Fatal(err)
	}
	valid := string(header) + "\n" + `{"index":0,"id":"a","digest":"d"}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"index":1,"id":"se`))
	f.Add([]byte(`{"id":` + "\n" + `{"index":0,"id":"a"}` + "\n"))
	path := filepath.Join(f.TempDir(), "j000001.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs, validLen, err := loadCheckpoint(path)
		if err != nil {
			return
		}
		if validLen > int64(len(data)) {
			t.Fatalf("validLen %d past the end of a %d-byte file", validLen, len(data))
		}
		for i, rec := range recs {
			if rec.ID == "" {
				t.Fatalf("record %d has no ID", i)
			}
		}
	})
}
