package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ntpddos/internal/sweep"
)

// Checkpoint format: one newline-delimited JSON file per job, named
// <id>.ckpt inside Config.CheckpointDir. The first line is a ckptHeader
// (enough to recompile and re-admit the job); every subsequent line is one
// sweep.JobRecord, appended and fsynced as the sub-job lands. A killed
// daemon therefore leaves a file whose record lines are exactly the
// completed sub-jobs; on restart those seed sweep.Options.Precompleted and
// only the missing work re-runs. The loader tolerates a torn trailing line
// (the crash may interrupt a write) by truncating back to the last valid
// line before appending resumes.

// ckptHeader is a checkpoint file's first line.
type ckptHeader struct {
	ID        string    `json:"id"`
	Client    string    `json:"client,omitempty"`
	Workers   int       `json:"workers,omitempty"`
	Spec      JobSpec   `json:"spec"`
	Submitted time.Time `json:"submitted"`
}

// ckptWriter appends record lines to one job's checkpoint file. Appends are
// serialized (the sweep collector calls OnResult sequentially, but the
// mutex keeps close racing-safe) and fsynced so a SIGKILL never loses an
// acknowledged sub-job.
type ckptWriter struct {
	mu sync.Mutex
	f  *os.File
}

// newCheckpoint creates (truncating) a job's checkpoint with its header.
func newCheckpoint(path string, h ckptHeader) (*ckptWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &ckptWriter{f: f}, nil
}

// reopenCheckpoint opens an existing checkpoint for appending, first
// truncating any torn trailing line back to validLen.
func reopenCheckpoint(path string, validLen int64) (*ckptWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &ckptWriter{f: f}, nil
}

// append persists one landed sub-job record.
func (w *ckptWriter) append(rec sweep.JobRecord) {
	if w == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return
	}
	w.f.Write(append(line, '\n'))
	w.f.Sync()
}

// close releases the file handle (idempotent).
func (w *ckptWriter) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// loadCheckpoint parses a checkpoint file: the header, every valid record
// line, and the byte offset up to which the file is well-formed (a torn
// trailing line is diagnosed, dropped, and excluded from validLen).
func loadCheckpoint(path string) (h ckptHeader, recs []sweep.JobRecord, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return h, nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	// Unlike ScanLines, a final line without its newline is torn (no
	// token) and a '\r' stays in its token, so each token plus its newline
	// is exactly its span of the file.
	sc.Split(func(data []byte, _ bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		return 0, nil, nil
	})
	if !sc.Scan() {
		return h, nil, 0, fmt.Errorf("checkpoint %s: no complete header line", path)
	}
	headerLine := sc.Bytes()
	if err := json.Unmarshal(headerLine, &h); err != nil {
		return h, nil, 0, fmt.Errorf("checkpoint %s: bad header: %v", path, err)
	}
	if h.ID == "" {
		return h, nil, 0, fmt.Errorf("checkpoint %s: header has no job ID", path)
	}
	validLen = int64(len(headerLine)) + 1
	for sc.Scan() {
		line := sc.Bytes()
		var rec sweep.JobRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			// Torn or corrupt trailing line: everything before it stands.
			break
		}
		recs = append(recs, rec)
		validLen += int64(len(line)) + 1
	}
	return h, recs, validLen, nil
}

// checkpointPath is the file a job checkpoints to.
func (d *Daemon) checkpointPath(id string) string {
	return filepath.Join(d.cfg.CheckpointDir, id+".ckpt")
}

// openJobCheckpoint attaches a fresh checkpoint to a newly admitted job.
// Checkpointing is best-effort: a filesystem error degrades to an
// uncheckpointed job, never a refused submission.
func (d *Daemon) openJobCheckpoint(j *job) {
	if d.cfg.CheckpointDir == "" {
		return
	}
	ck, err := newCheckpoint(d.checkpointPath(j.id), ckptHeader{
		ID: j.id, Client: j.client, Workers: j.workers,
		Spec: j.spec, Submitted: j.submitted,
	})
	if err != nil {
		d.logf("job %s: checkpoint unavailable: %v", j.id, err)
		return
	}
	j.ckpt = ck
}

// releaseCheckpoint closes a terminal job's checkpoint and removes the file
// — unless the daemon is draining, in which case the file is kept so the
// next process resumes the interrupted job from its completed sub-jobs.
func (d *Daemon) releaseCheckpoint(j *job) {
	if j.ckpt == nil {
		return
	}
	j.ckpt.close()
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		return
	}
	os.Remove(d.checkpointPath(j.id))
}

// recoverJobs scans the checkpoint directory at startup and re-admits every
// job a previous process left behind: completed sub-job records become
// Precompleted slots, so only the missing work re-runs, and the resumed
// manifest is byte-identical to an uninterrupted run.
func (d *Daemon) recoverJobs() {
	entries, err := os.ReadDir(d.cfg.CheckpointDir)
	if err != nil {
		d.logf("checkpoint recovery: %v", err)
		return
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ckpt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(d.cfg.CheckpointDir, name)
		h, recs, validLen, err := loadCheckpoint(path)
		if err != nil {
			d.logf("checkpoint %s skipped: %v", name, err)
			continue
		}
		// releaseCheckpoint removes <ID>.ckpt, so the ID must name this file.
		if h.ID+".ckpt" != name {
			d.logf("checkpoint %s skipped: header names job %q", name, h.ID)
			continue
		}
		jobs, err := h.Spec.Jobs(d.cfg.Base)
		if err != nil {
			d.logf("checkpoint %s skipped: spec no longer compiles: %v", name, err)
			continue
		}
		pre := make(map[int]sweep.JobRecord, len(recs))
		retries := 0
		for _, rec := range recs {
			if rec.Index >= 0 && rec.Index < len(jobs) && jobs[rec.Index].ID == rec.ID {
				pre[rec.Index] = rec
				retries += rec.Retries
			}
		}
		workers := h.Workers
		if workers <= 0 || workers > d.cfg.Workers {
			workers = d.cfg.Workers
		}
		j := d.store.addRecovered(h.ID, h.Client, h.Spec, jobs, workers, h.Submitted)
		j.pre = pre
		j.retries = retries
		if ck, err := reopenCheckpoint(path, validLen); err == nil {
			j.ckpt = ck
		} else {
			d.logf("job %s: checkpoint reopen failed: %v", j.id, err)
		}
		select {
		case d.queue <- j:
			d.met.jobsRecovered.Inc()
			d.logf("job %s recovered from checkpoint: %d/%d sub-jobs already done",
				j.id, len(pre), len(jobs))
		default:
			d.store.cancelQueued(j, "recovered but queue full", d.cfg.now())
			d.releaseCheckpoint(j)
			d.logf("job %s recovered but queue full; canceled", j.id)
		}
	}
}

// seqOf extracts the numeric suffix of a j%06d job ID (0 if malformed).
func seqOf(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}
