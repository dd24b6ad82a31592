package shard

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by BreakerSet.Do when a peer's breaker refuses
// the call: it is open inside its backoff window, or half-open with its
// single trial already out.
var ErrBreakerOpen = errors.New("shard: circuit breaker open")

// BreakerState is the lifecycle state of one peer's circuit breaker.
type BreakerState int32

// Breaker states. The zero value is Closed so an untouched peer is assumed
// healthy.
const (
	// BreakerClosed: the peer is healthy; requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the open period elapsed; exactly one trial call
	// (a forwarded request or an active health probe) is allowed through
	// to decide whether the peer recovered.
	BreakerHalfOpen
	// BreakerOpen: consecutive failures tripped the breaker; requests are
	// refused locally until the backoff deadline passes.
	BreakerOpen
)

// String returns the state's metrics-stable name.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerOptions tunes a BreakerSet.
type BreakerOptions struct {
	// FailureThreshold is the consecutive-failure count that opens a closed
	// breaker (default 3).
	FailureThreshold int
	// OpenBase is the first open period; each consecutive re-open (a failed
	// half-open trial) doubles it up to OpenMax (defaults 1s / 30s).
	OpenBase time.Duration
	OpenMax  time.Duration

	// Now is a test clock that replaces time.Now, so tests can expire an
	// open period without sleeping. Production code leaves it nil.
	Now func() time.Time
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.OpenBase <= 0 {
		o.OpenBase = time.Second
	}
	if o.OpenMax <= 0 {
		o.OpenMax = 30 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// breaker is one peer's circuit breaker: closed while the peer behaves,
// open (refusing calls locally, so callers fail over without paying a
// transport timeout) after FailureThreshold consecutive failures, and
// half-open — admitting a single trial — once the capped-backoff open
// period elapses.
type breaker struct {
	set  *BreakerSet
	node string

	mu          sync.Mutex
	state       BreakerState
	consecFails int       // consecutive failures while closed
	opens       int       // consecutive open periods (drives backoff doubling)
	until       time.Time // end of the current open period
	probing     bool      // the half-open trial slot is taken
}

// admits reports whether acquire would let a call through, without taking
// the trial slot or moving an expired open breaker to half-open.
func (b *breaker) admits() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return !b.set.opts.Now().Before(b.until)
	default: // BreakerHalfOpen
		return !b.probing
	}
}

// acquire admits a call, reporting whether it holds the half-open trial
// slot. An expired open breaker moves to half-open and hands the slot to
// this call; while the slot is out every other call is refused.
func (b *breaker) acquire() (trial, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, true
	case BreakerOpen:
		if b.set.opts.Now().Before(b.until) {
			return false, false
		}
		b.setLocked(BreakerHalfOpen)
	default: // BreakerHalfOpen
		if b.probing {
			return false, false
		}
	}
	b.probing = true
	return true, true
}

// settle records an admitted call's outcome. Success closes the breaker
// and resets all failure history. A call abandoned because its caller's
// context ended says nothing about the peer: a trial returns its slot, so
// the breaker stays half-open for the next caller. Any other failure counts
// towards FailureThreshold while closed and re-opens a half-open breaker
// with doubled backoff.
func (b *breaker) settle(trial, canceled bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case err == nil:
		b.consecFails, b.opens, b.probing = 0, 0, false
		b.setLocked(BreakerClosed)
	case canceled:
		if trial && b.state == BreakerHalfOpen {
			b.probing = false
		}
	case b.state == BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.set.opts.FailureThreshold {
			b.openLocked()
		}
	case b.state == BreakerHalfOpen:
		b.openLocked()
	}
	// A failure while open (a call already in flight when the breaker
	// tripped) neither extends nor escalates the backoff.
}

// openLocked starts an open period with capped exponential backoff.
func (b *breaker) openLocked() {
	b.opens++
	d := b.set.opts.OpenBase
	if shift := b.opens - 1; shift > 0 {
		if shift > 30 || float64(d)*math.Pow(2, float64(shift)) > float64(b.set.opts.OpenMax) {
			d = b.set.opts.OpenMax
		} else {
			d <<= shift
		}
	}
	if d > b.set.opts.OpenMax {
		d = b.set.opts.OpenMax
	}
	b.until = b.set.opts.Now().Add(d)
	b.consecFails = 0
	b.probing = false
	b.setLocked(BreakerOpen)
}

// setLocked moves the breaker to state to and reports a change through the
// set's OnTransition while b.mu is held, so observers see one node's
// transitions exactly once each and in the order they happened.
func (b *breaker) setLocked(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.set.OnTransition != nil {
		b.set.OnTransition(b.node, from, to)
	}
}

// BreakerSet holds one breaker per peer node, creating them on first use.
// Every call to a peer goes through Do, which is the only way breaker
// state changes. A nil set admits everything.
type BreakerSet struct {
	opts BreakerOptions

	// OnTransition, when set before traffic starts, observes every state
	// change (breaker trip, half-open trial, recovery) for logging and the
	// flight recorder. It runs under the node's breaker lock and must not
	// call back into the set.
	OnTransition func(node string, from, to BreakerState)

	mu sync.Mutex
	m  map[string]*breaker
}

// NewBreakerSet builds a set with the given options.
func NewBreakerSet(opts BreakerOptions) *BreakerSet {
	return &BreakerSet{opts: opts.withDefaults(), m: make(map[string]*breaker)}
}

// breaker returns (creating if needed) the breaker for node.
func (s *BreakerSet) breaker(node string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[node]
	if !ok {
		b = &breaker{set: s, node: node}
		s.m[node] = b
	}
	return b
}

// Do runs fn as one guarded call to node. While node's breaker is open, or
// half-open with its trial already out, Do refuses with ErrBreakerOpen and
// fn never runs. Otherwise fn's result settles the call: nil records a
// success, an error after ctx has ended returns the slot without judging
// the peer, and any other error records a failure. Do returns fn's error.
func (s *BreakerSet) Do(ctx context.Context, node string, fn func(context.Context) error) error {
	if s == nil {
		return fn(ctx)
	}
	b := s.breaker(node)
	trial, ok := b.acquire()
	if !ok {
		return ErrBreakerOpen
	}
	err := fn(ctx)
	b.settle(trial, ctx.Err() != nil, err)
	return err
}

// admits reports whether Do would currently let a call to node through,
// without changing any breaker state.
func (s *BreakerSet) admits(node string) bool {
	return s == nil || s.breaker(node).admits()
}

// State returns node's breaker state without side effects (an expired open
// period still reads as open until the next Do takes the trial).
func (s *BreakerSet) State(node string) BreakerState {
	if s == nil {
		return BreakerClosed
	}
	b := s.breaker(node)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// States snapshots every known breaker, keyed by node.
func (s *BreakerSet) States() map[string]BreakerState {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]BreakerState, len(s.m))
	for n, b := range s.m {
		b.mu.Lock()
		out[n] = b.state
		b.mu.Unlock()
	}
	return out
}
