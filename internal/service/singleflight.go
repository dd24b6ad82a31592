package service

import "sync"

// flightGroup deduplicates concurrent work by key: the first caller with a
// key executes fn, later callers arriving before it finishes block and
// share the result. It is the classic singleflight pattern
// (golang.org/x/sync/singleflight) reimplemented on the stdlib so the
// module stays dependency-free. Results are not retained after the last
// waiter is released — persistence is the cache's job.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
	// joined, when set before the group is used, is called with the key
	// each time a caller joins an in-flight execution, before it blocks,
	// so tests can sequence a waiter against the leader without polling.
	joined func(key string)
}

type flightCall struct {
	done    chan struct{}
	val     any
	err     error
	waiters int
}

// waiting reports how many callers are blocked on key's in-flight
// execution (0 when no execution is in flight).
func (g *flightGroup) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}

// Do executes fn once per concurrent set of callers sharing key. leader
// reports whether this caller ran fn itself; waiters that joined an
// in-flight execution see false and receive the leader's result.
func (g *flightGroup) Do(key string, fn func() (any, error)) (v any, err error, leader bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		if g.joined != nil {
			g.joined(key)
		}
		<-c.done
		return c.val, c.err, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, true
}
