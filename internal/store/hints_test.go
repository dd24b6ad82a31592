package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHintsQueueDeliverCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.journal")
	q, err := OpenHints(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Add("n2", "k1", json.RawMessage(`{"v":1}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Add("n2", "k2", json.RawMessage(`{"v":2}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Add("n3", "k1", json.RawMessage(`{"v":1}`), ""); err != nil {
		t.Fatal(err)
	}
	if q.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.Depth())
	}
	got := q.PendingFor("n2")
	if len(got) != 2 || got[0].Key != "k1" || got[1].Key != "k2" {
		t.Fatalf("n2 pending = %+v", got)
	}
	if err := q.Delivered("n2", "k1"); err != nil {
		t.Fatal(err)
	}
	if q.Depth() != 2 {
		t.Fatalf("depth after delivery = %d", q.Depth())
	}
	nodes := q.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
	st := q.Stats()
	if st.Queued != 3 || st.Delivered != 1 || st.Pending != 2 {
		t.Fatalf("stats = %+v", st)
	}
	q.Close()

	// Reopen: delivered hints are gone, undelivered survive, file compacted.
	q2, err := OpenHints(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Depth() != 2 {
		t.Fatalf("reopened depth = %d, want 2", q2.Depth())
	}
	if p := q2.PendingFor("n2"); len(p) != 1 || p[0].Key != "k2" || string(p[0].Payload) != `{"v":2}` {
		t.Fatalf("reopened n2 pending = %+v", p)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"op":"del"`) {
		t.Fatal("compaction kept delete records")
	}
}

func TestHintsDedupSameNodeKey(t *testing.T) {
	q, err := OpenHints("", 0)
	if err != nil {
		t.Fatal(err)
	}
	q.Add("n2", "k", json.RawMessage(`{"v":"old"}`), "")
	q.Add("n2", "k", json.RawMessage(`{"v":"new"}`), "")
	p := q.PendingFor("n2")
	if len(p) != 1 || string(p[0].Payload) != `{"v":"new"}` {
		t.Fatalf("pending = %+v, want one hint with the latest payload", p)
	}
}

func TestHintsPerNodeBoundDropsOldest(t *testing.T) {
	q, err := OpenHints("", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q.Add("n2", fmt.Sprintf("k%d", i), nil, "")
	}
	p := q.PendingFor("n2")
	if len(p) != 3 || p[0].Key != "k2" || p[2].Key != "k4" {
		t.Fatalf("pending after overflow = %+v", p)
	}
	if st := q.Stats(); st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", st.Dropped)
	}
}

func TestHintsToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.journal")
	q, err := OpenHints(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.Add("n2", "k1", json.RawMessage(`{}`), "")
	q.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"add","node":"n3","key":"k2","pay`)
	f.Close()

	q2, err := OpenHints(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Depth() != 1 || len(q2.PendingFor("n2")) != 1 {
		t.Fatalf("depth = %d, want the one intact hint", q2.Depth())
	}
}

func TestNilHintQueueIsSafe(t *testing.T) {
	var q *HintQueue
	if err := q.Add("n", "k", nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Delivered("n", "k"); err != nil {
		t.Fatal(err)
	}
	if q.Depth() != 0 || q.PendingFor("n") != nil || q.Nodes() != nil {
		t.Fatal("nil queue not zero")
	}
	if q.Stats() != (HintStats{}) || q.Close() != nil {
		t.Fatal("nil queue stats/close not zero")
	}
}

func TestHintsTraceSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.journal")
	q, err := OpenHints(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := "00-0123456789abcdef0123456789abcdef-00000000000000aa-01"
	if err := q.Add("n2", "k1", json.RawMessage(`{"v":1}`), tp); err != nil {
		t.Fatal(err)
	}
	if err := q.Add("n3", "k2", json.RawMessage(`{"v":2}`), ""); err != nil {
		t.Fatal(err)
	}
	if got := q.PendingFor("n2")[0].Trace; got != tp {
		t.Fatalf("trace = %q", got)
	}
	if got := q.PendingFor("n3")[0].Trace; got != "" {
		t.Fatalf("untraced hint got trace %q", got)
	}
	q.Close()

	q2, err := OpenHints(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := q2.PendingFor("n2")[0].Trace; got != tp {
		t.Fatalf("trace after reopen = %q", got)
	}
}

func TestHintsDepthsAndOldest(t *testing.T) {
	q, err := OpenHints("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Depths() == nil || len(q.Depths()) != 0 {
		t.Fatalf("empty queue depths = %v", q.Depths())
	}
	if q.OldestUnixNano() != 0 {
		t.Fatal("empty queue should have no oldest hint")
	}
	q.Add("n2", "k1", nil, "")
	first := q.PendingFor("n2")[0].TimeUnixNano
	q.Add("n2", "k2", nil, "")
	q.Add("n3", "k1", nil, "")
	d := q.Depths()
	if d["n2"] != 2 || d["n3"] != 1 {
		t.Fatalf("depths = %v", d)
	}
	if got := q.OldestUnixNano(); got != first {
		t.Fatalf("oldest = %d, want %d", got, first)
	}
	q.Delivered("n2", "k1")
	q.Delivered("n2", "k2")
	if _, ok := q.Depths()["n2"]; ok {
		t.Fatalf("drained node still in depths: %v", q.Depths())
	}
}

// A hint delivered and then queued again is replayed once after a reopen,
// at the position of its latest queueing, as the in-memory FIFO holds it.
func TestHintsRequeuedAfterDeliveryReplaysOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.journal")
	q, err := OpenHints(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		deliver bool
		key     string
	}{{false, "a"}, {false, "b"}, {true, "a"}, {false, "a"}} {
		if step.deliver {
			err = q.Delivered("n2", step.key)
		} else {
			err = q.Add("n2", step.key, json.RawMessage(`{"v":"`+step.key+`"}`), "")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	keys := func(q *HintQueue) string {
		var ks []string
		for _, h := range q.PendingFor("n2") {
			ks = append(ks, h.Key)
		}
		return strings.Join(ks, " ")
	}
	if got := keys(q); got != "b a" || q.Depth() != 2 {
		t.Fatalf("in memory: pending [%s], depth %d; want [b a], 2", got, q.Depth())
	}
	q.Close()
	for reopen := 1; reopen <= 2; reopen++ {
		q, err = OpenHints(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := keys(q); got != "b a" || q.Depth() != 2 {
			t.Fatalf("reopen %d: pending [%s], depth %d; want [b a], 2", reopen, got, q.Depth())
		}
		q.Close()
	}
}
