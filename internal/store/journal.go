package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Journal entry operations.
const (
	// OpSubmit records a job accepted into the queue, with its request.
	OpSubmit = "submit"
	// OpDone records a job that reached a terminal state (any outcome).
	OpDone = "done"
)

// Entry is one journal line. A job is pending when its OpSubmit has no
// matching OpDone.
type Entry struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Request is the submitted AnalysisRequest, verbatim (OpSubmit only).
	Request json.RawMessage `json:"request,omitempty"`
	// TimeUnixNano stamps the append.
	TimeUnixNano int64 `json:"time_unix_nano,omitempty"`
}

// Journal is an append-only log of job lifecycle events, durable across
// crashes: every accepted job is recorded before it runs and marked done
// when it finishes, so a restarted server can replay exactly the work it
// had accepted but not completed. Opening the journal compacts it — done
// jobs are dropped, pending submissions are rewritten — so the file stays
// proportional to the in-flight backlog, not to history.
//
// All methods are safe for concurrent use and safe on a nil receiver.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	pending []Entry
	appends int64
}

// JournalStats is a point-in-time snapshot of the journal.
type JournalStats struct {
	// PendingAtOpen is how many submissions were pending when the journal
	// was opened (the replay backlog).
	PendingAtOpen int `json:"pending_at_open"`
	// Appends counts entries written since open.
	Appends int64 `json:"appends"`
}

// OpenJournal opens (creating if absent) the journal at path, scans it for
// pending submissions, and compacts it. A truncated final line — the
// signature of a crash mid-append — is tolerated and dropped.
func OpenJournal(path string) (*Journal, error) {
	if path == "" {
		return nil, fmt.Errorf("journal: no path given")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	pending, err := scanJournal(path)
	if err != nil {
		return nil, err
	}
	// Compact: rewrite only the pending submissions, atomically, then
	// append from there.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact.*")
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, e := range pending {
		line, merr := json.Marshal(e)
		if merr != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, fmt.Errorf("journal: %w", merr)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("journal: compacting: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, path: path, pending: pending}, nil
}

// scanJournal reads every parseable line and returns the submissions with
// no matching done record, in submission order.
func scanJournal(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var order []string
	submits := make(map[string]Entry)
	done := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			continue // truncated trailing write, or garbage: skip
		}
		switch e.Op {
		case OpSubmit:
			if done[e.ID] {
				// A job can finish before its submission is journaled
				// (the server enqueues first); the done record retires
				// it all the same.
				continue
			}
			if _, ok := submits[e.ID]; !ok {
				order = append(order, e.ID)
			}
			submits[e.ID] = e
		case OpDone:
			delete(submits, e.ID)
			done[e.ID] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: scanning %s: %w", path, err)
	}
	var pending []Entry
	for _, id := range order {
		if e, ok := submits[id]; ok {
			pending = append(pending, e)
		}
	}
	return pending, nil
}

// Pending returns the submissions that were outstanding when the journal
// was opened — the replay backlog. The slice is a copy.
func (j *Journal) Pending() []Entry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, len(j.pending))
	copy(out, j.pending)
	return out
}

// Append writes one entry and syncs it to disk, so a job accepted and
// acknowledged is never lost to a crash.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	if e.TimeUnixNano == 0 {
		e.TimeUnixNano = time.Now().UnixNano()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: appending: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing: %w", err)
	}
	j.appends++
	return nil
}

// Submit appends an OpSubmit entry for id with the request body.
func (j *Journal) Submit(id string, request json.RawMessage) error {
	return j.Append(Entry{Op: OpSubmit, ID: id, Request: request})
}

// Done appends an OpDone entry for id.
func (j *Journal) Done(id string) error {
	return j.Append(Entry{Op: OpDone, ID: id})
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{PendingAtOpen: len(j.pending), Appends: j.appends}
}

// Close closes the journal file. Further appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
