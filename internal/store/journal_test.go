package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalReplayCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Pending(); len(got) != 0 {
		t.Fatalf("fresh journal pending = %d", len(got))
	}
	if err := j.Submit("a1", json.RawMessage(`{"architecture":"builtin:1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("a2", json.RawMessage(`{"architecture":"builtin:2"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Done("a1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: only a2 is pending, and the file is compacted to it.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 1 || pending[0].ID != "a2" {
		t.Fatalf("pending = %+v, want [a2]", pending)
	}
	if !strings.Contains(string(pending[0].Request), "builtin:2") {
		t.Fatalf("pending request = %s", pending[0].Request)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "a1") {
		t.Fatal("compaction kept a finished job")
	}
	if st := j2.Stats(); st.PendingAtOpen != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJournalToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("a1", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: a partial JSON line at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"submit","id":"a2","requ`)
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 1 || pending[0].ID != "a1" {
		t.Fatalf("pending = %+v, want the one intact submission", pending)
	}
}

func TestJournalIgnoresDoneWithoutSubmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Done("ghost"); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Pending(); len(got) != 0 {
		t.Fatalf("pending = %+v", got)
	}
}

// A job can finish before the server journals its submission; the done
// record written first must still retire it.
func TestJournalDoneBeforeSubmitRetires(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Done("fast"); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("fast", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Pending(); len(got) != 0 {
		t.Fatalf("pending = %+v, want none", got)
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Submit("a1", nil); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestJournalDoneDurableWithoutClose: every append — including the done
// record — is fsynced before Append returns, so a crash immediately after
// Done (no Close, no buffered-writer flush) must not resurrect the job on
// replay. We verify the done record is on disk while the journal is still
// open, then replay the same path as a recovering process would.
func TestJournalDoneDurableWithoutClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("a1", json.RawMessage(`{"architecture":"builtin:1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Done("a1"); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "crashes" here. The done record must already
	// be durable on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op":"done"`) {
		t.Fatalf("done record not on disk before Close: %s", data)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Pending(); len(got) != 0 {
		t.Fatalf("completed job resurrected after unclean shutdown: %+v", got)
	}
}

// TestJournalTornDoneKeepsJobPending: a done record torn mid-write (crash
// between the write and reaching durable storage) must leave the job
// pending — replaying a completed job is safe (idempotent, content-
// addressed), dropping an incomplete one is not.
func TestJournalTornDoneKeepsJobPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("a1", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"done","id":"a`) // torn mid-record
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 1 || pending[0].ID != "a1" {
		t.Fatalf("pending = %+v; a torn done record must not retire the job", pending)
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	if err := j.Submit("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Done("a"); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != nil || j.Close() != nil || j.Stats() != (JournalStats{}) {
		t.Fatal("nil journal not zero")
	}
}
