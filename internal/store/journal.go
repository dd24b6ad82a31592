package store

import (
	"encoding/json"
	"fmt"
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
	log     *jsonlLog
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
	var order []string
	submits := make(map[string]Entry)
	done := make(map[string]bool)
	j := &Journal{}
	log, err := openLog("journal", path, true, func(e Entry) {
		switch e.Op {
		case OpSubmit:
			if done[e.ID] {
				// A job can finish before its submission is journaled
				// (the server enqueues first); the done record retires
				// it all the same.
				return
			}
			if _, ok := submits[e.ID]; !ok {
				order = append(order, e.ID)
			}
			submits[e.ID] = e
		case OpDone:
			delete(submits, e.ID)
			done[e.ID] = true
		}
	}, func() []Entry {
		for _, id := range order {
			if e, ok := submits[id]; ok {
				j.pending = append(j.pending, e)
			}
		}
		return j.pending
	})
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
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
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.append(e); err != nil {
		return err
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
	return j.log.close()
}
