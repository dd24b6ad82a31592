package store

import (
	"encoding/json"
	"sync"
	"time"
)

// Hint queue entry operations.
const (
	// hintOpAdd records a result owed to a peer that was down when it was
	// computed.
	hintOpAdd = "add"
	// hintOpDel records a hint delivered to (or dropped for) its target.
	hintOpDel = "del"
)

// Hint is one hinted-handoff record: a result payload owed to Node, which
// was unreachable when the result was computed on its behalf. Once the
// node's circuit breaker closes, the holder replays the payload to it so
// the owner's store catches up with work done in its absence.
type Hint struct {
	Node string `json:"node"`
	Key  string `json:"key"`
	// Payload is the stored object (the JSON-encoded outcome), verbatim.
	Payload json.RawMessage `json:"payload,omitempty"`
	// TimeUnixNano stamps when the hint was queued.
	TimeUnixNano int64 `json:"time_unix_nano,omitempty"`
	// Trace carries the originating request's traceparent, so the eventual
	// delivery joins the same distributed trace as the job that queued it.
	Trace string `json:"trace,omitempty"`
}

// hintLine is the on-disk JSONL shape.
type hintLine struct {
	Op string `json:"op"`
	Hint
}

// DefaultMaxHintsPerNode bounds the queue per target node; beyond it the
// oldest hints are dropped (the owner will simply recompute those keys).
const DefaultMaxHintsPerNode = 1024

// HintStats is a point-in-time snapshot of the hint queue.
type HintStats struct {
	// Pending is the number of undelivered hints across all nodes.
	Pending int `json:"pending"`
	// Queued / Delivered / Dropped are lifetime counters (Dropped counts
	// hints displaced by the per-node bound).
	Queued    int64 `json:"queued"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
}

// HintQueue is a durable queue of hinted-handoff records, one JSONL line
// per add/delete, compacted on open like the job journal. Opening with an
// empty path yields a memory-only queue (hints then die with the process —
// acceptable, since the owner merely recomputes on demand). All methods
// are safe for concurrent use and safe on a nil receiver.
type HintQueue struct {
	mu      sync.Mutex
	log     *jsonlLog         // nil for a memory-only queue
	pending map[string][]Hint // target node → FIFO of undelivered hints
	maxPer  int

	queued    int64
	delivered int64
	dropped   int64
}

// OpenHints opens (creating if absent) the hint queue at path, replaying
// undelivered hints, and compacts it. An empty path yields a memory-only
// queue. maxPerNode ≤ 0 selects DefaultMaxHintsPerNode.
func OpenHints(path string, maxPerNode int) (*HintQueue, error) {
	if maxPerNode <= 0 {
		maxPerNode = DefaultMaxHintsPerNode
	}
	q := &HintQueue{pending: make(map[string][]Hint), maxPer: maxPerNode}
	if path == "" {
		return q, nil
	}
	// order lists keys as they were queued afresh; at holds each key's
	// latest position there, so a key delivered and queued again is
	// replayed once, where Add put it the second time.
	var order []string
	at := make(map[string]int)
	live := make(map[string]Hint)
	keyOf := func(h Hint) string { return h.Node + "\x00" + h.Key }
	log, err := openLog("hints", path, false, func(hl hintLine) {
		k := keyOf(hl.Hint)
		switch hl.Op {
		case hintOpAdd:
			if _, ok := live[k]; !ok {
				at[k] = len(order)
				order = append(order, k)
			}
			live[k] = hl.Hint
		case hintOpDel:
			delete(live, k)
		}
	}, func() []hintLine {
		var lines []hintLine
		for i, k := range order {
			if h, ok := live[k]; ok && at[k] == i {
				q.pending[h.Node] = append(q.pending[h.Node], h)
				lines = append(lines, hintLine{Op: hintOpAdd, Hint: h})
			}
		}
		return lines
	})
	if err != nil {
		return nil, err
	}
	q.log = log
	return q, nil
}

// appendLocked writes one line to the backing file (no-op for a
// memory-only queue). Durability is best-effort — the log is not synced —
// since a hint lost to a crash just means the recovered owner recomputes
// that key.
func (q *HintQueue) appendLocked(hl hintLine) error {
	if q.log == nil {
		return nil
	}
	return q.log.append(hl)
}

// Add queues a hint: payload under key is owed to node. trace is the
// originating request's traceparent (empty for untraced work), so the
// handoff delivery can rejoin that trace. A hint for the same (node, key)
// replaces the older one in place; exceeding the per-node bound drops the
// oldest hint for that node.
func (q *HintQueue) Add(node, key string, payload json.RawMessage, trace string) error {
	if q == nil {
		return nil
	}
	h := Hint{Node: node, Key: key, Payload: payload, TimeUnixNano: time.Now().UnixNano(), Trace: trace}
	q.mu.Lock()
	defer q.mu.Unlock()
	list := q.pending[node]
	replaced := false
	for i := range list {
		if list[i].Key == key {
			list[i] = h
			replaced = true
			break
		}
	}
	if !replaced {
		list = append(list, h)
		q.queued++
		if len(list) > q.maxPer {
			dropped := list[0]
			list = list[1:]
			q.dropped++
			_ = q.appendLocked(hintLine{Op: hintOpDel, Hint: Hint{Node: dropped.Node, Key: dropped.Key}})
		}
	} else {
		q.queued++
	}
	q.pending[node] = list
	return q.appendLocked(hintLine{Op: hintOpAdd, Hint: h})
}

// PendingFor returns the undelivered hints for node, oldest first. The
// slice is a copy.
func (q *HintQueue) PendingFor(node string) []Hint {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Hint, len(q.pending[node]))
	copy(out, q.pending[node])
	return out
}

// Nodes returns the nodes with undelivered hints.
func (q *HintQueue) Nodes() []string {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.pending))
	for n, hints := range q.pending {
		if len(hints) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// Delivered retires the hint for (node, key) after a successful replay.
func (q *HintQueue) Delivered(node, key string) error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	list := q.pending[node]
	for i := range list {
		if list[i].Key == key {
			q.pending[node] = append(list[:i], list[i+1:]...)
			q.delivered++
			break
		}
	}
	if len(q.pending[node]) == 0 {
		delete(q.pending, node)
	}
	return q.appendLocked(hintLine{Op: hintOpDel, Hint: Hint{Node: node, Key: key}})
}

// Depth returns the number of undelivered hints across all nodes.
func (q *HintQueue) Depth() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, hints := range q.pending {
		n += len(hints)
	}
	return n
}

// Depths returns the undelivered hint count per target node. The map is a
// copy; nodes with nothing pending are absent.
func (q *HintQueue) Depths() map[string]int {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.pending))
	for n, hints := range q.pending {
		if len(hints) > 0 {
			out[n] = len(hints)
		}
	}
	return out
}

// OldestUnixNano returns the queue time of the oldest undelivered hint, or 0
// when nothing is pending. The age of this hint bounds how far behind the
// worst replica is — the fleet's replication lag.
func (q *HintQueue) OldestUnixNano() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest int64
	for _, hints := range q.pending {
		for _, h := range hints {
			if h.TimeUnixNano != 0 && (oldest == 0 || h.TimeUnixNano < oldest) {
				oldest = h.TimeUnixNano
			}
		}
	}
	return oldest
}

// Stats snapshots the hint-queue counters.
func (q *HintQueue) Stats() HintStats {
	if q == nil {
		return HintStats{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, hints := range q.pending {
		n += len(hints)
	}
	return HintStats{Pending: n, Queued: q.queued, Delivered: q.delivered, Dropped: q.dropped}
}

// Close closes the backing file (memory-only queues have none). Further
// appends become memory-only.
func (q *HintQueue) Close() error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.log == nil {
		return nil
	}
	err := q.log.close()
	q.log = nil
	return err
}
