package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"time"
)

// TenantHeader names the submitting tenant on POST /v1/analyses. Requests
// without it are charged to DefaultTenant.
const TenantHeader = "X-Secserved-Tenant"

// DefaultTenant is the bucket unlabelled requests are charged to.
const DefaultTenant = "default"

// TenantConfig is one tenant's admission budget. The zero value is
// unlimited rate and in-flight at default priority.
type TenantConfig struct {
	// Rate is the sustained submission budget in requests/second (token
	// bucket). 0 means unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket capacity — how many requests may land at
	// once before the rate applies. 0 derives max(1, ceil(Rate)).
	Burst int `json:"burst,omitempty"`
	// MaxInFlight bounds this tenant's accepted-but-unfinished jobs. 0
	// means unlimited.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// Priority (1 lowest … 10 highest, 0 selects the default 5) orders
	// load shedding under queue pressure: lower priorities are shed at
	// lower pressure, priority 10 is shed only by the hard queue bound.
	Priority int `json:"priority,omitempty"`
}

// TenantPolicy is the admission-control configuration: a default budget
// plus per-tenant overrides. A nil policy disables admission control.
type TenantPolicy struct {
	// Default applies to tenants with no explicit entry (including
	// DefaultTenant unless overridden).
	Default TenantConfig `json:"default"`
	// Tenants maps tenant name → budget.
	Tenants map[string]TenantConfig `json:"tenants,omitempty"`
}

// LoadTenants reads a TenantPolicy from a JSON file of the shape
//
//	{"default": {"rate": 50, "priority": 5},
//	 "tenants": {"batch": {"rate": 5, "burst": 5, "priority": 2}}}
func LoadTenants(path string) (*TenantPolicy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	var p TenantPolicy
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("tenants: parsing %s: %w", path, err)
	}
	for name, cfg := range p.Tenants {
		if cfg.Rate < 0 || cfg.Burst < 0 || cfg.MaxInFlight < 0 || cfg.Priority < 0 || cfg.Priority > 10 {
			return nil, fmt.Errorf("tenants: %s: negative budget or priority out of range 0..10", name)
		}
	}
	return &p, nil
}

// configFor resolves the effective budget for a tenant.
func (p *TenantPolicy) configFor(tenant string) TenantConfig {
	if p == nil {
		return TenantConfig{}
	}
	if cfg, ok := p.Tenants[tenant]; ok {
		return cfg
	}
	return p.Default
}

// shedAt maps a priority to the queue-pressure level at which the tenant
// is shed: priority 1 sheds from 0.775 pressure, the default 5 from
// 0.875, and priority 10 only at a completely full queue (which the
// queue bound itself rejects with 503).
func shedAt(priority int) float64 {
	if priority <= 0 {
		priority = 5
	}
	if priority > 10 {
		priority = 10
	}
	return 0.75 + 0.025*float64(priority)
}

// Shed reasons, reported in admission metrics and error kinds.
const (
	shedReasonRate     = "rate"
	shedReasonInFlight = "in_flight"
	shedReasonPressure = "pressure"
)

// tenantState is one tenant's live token bucket and in-flight count.
type tenantState struct {
	cfg    TenantConfig
	tokens float64
	last   time.Time

	inflight int64
	admitted int64
	shed     map[string]int64 // reason → count
}

// admission is the per-tenant admission controller in front of the
// submission path. All methods are safe for concurrent use; a nil
// controller admits everything.
type admission struct {
	policy *TenantPolicy
	now    func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newAdmission(policy *TenantPolicy) *admission {
	if policy == nil {
		return nil
	}
	return &admission{policy: policy, now: time.Now, tenants: make(map[string]*tenantState)}
}

func (a *admission) state(tenant string) *tenantState {
	st, ok := a.tenants[tenant]
	if !ok {
		st = &tenantState{cfg: a.policy.configFor(tenant), shed: make(map[string]int64)}
		st.tokens = float64(st.burst())
		st.last = a.now()
		a.tenants[tenant] = st
	}
	return st
}

func (st *tenantState) burst() int {
	if st.cfg.Burst > 0 {
		return st.cfg.Burst
	}
	if st.cfg.Rate > 0 {
		return int(math.Max(1, math.Ceil(st.cfg.Rate)))
	}
	return 1
}

// admit decides whether a submission from tenant may enter given the
// current queue pressure (depth/capacity). On admission it charges one
// token and one in-flight slot and returns a release function the caller
// must invoke exactly once when the work leaves the system. On rejection
// it returns the shed reason and a Retry-After hint.
func (a *admission) admit(tenant string, pressure float64) (release func(), retryAfter time.Duration, reason string) {
	if a == nil {
		return func() {}, 0, ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tenant)

	// Priority shed first: under pressure the lowest-priority tenants
	// yield before any budget math, so a high-priority tenant's latency is
	// insulated from a low-priority flood.
	if pressure >= shedAt(st.cfg.Priority) {
		st.shed[shedReasonPressure]++
		return nil, time.Second, shedReasonPressure
	}
	if st.cfg.Rate > 0 {
		now := a.now()
		st.tokens = math.Min(float64(st.burst()), st.tokens+st.cfg.Rate*now.Sub(st.last).Seconds())
		st.last = now
		if st.tokens < 1 {
			st.shed[shedReasonRate]++
			secs := math.Ceil((1 - st.tokens) / st.cfg.Rate)
			return nil, time.Duration(math.Max(1, secs)) * time.Second, shedReasonRate
		}
		st.tokens--
	}
	if st.cfg.MaxInFlight > 0 && st.inflight >= int64(st.cfg.MaxInFlight) {
		st.shed[shedReasonInFlight]++
		// A token was charged above; hand it back, the request never entered.
		if st.cfg.Rate > 0 {
			st.tokens++
		}
		return nil, time.Second, shedReasonInFlight
	}
	st.inflight++
	st.admitted++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			st.inflight--
			a.mu.Unlock()
		})
	}, 0, ""
}

// TenantStats is one tenant's admission counters in /v1/metrics.
type TenantStats struct {
	Admitted int64 `json:"admitted"`
	InFlight int64 `json:"in_flight"`
	// Shed maps reason ("rate", "in_flight", "pressure") → rejections.
	Shed map[string]int64 `json:"shed,omitempty"`
	// Priority is the effective shedding priority (1..10).
	Priority int `json:"priority"`
}

// stats snapshots every tenant seen so far.
func (a *admission) stats() map[string]TenantStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TenantStats, len(a.tenants))
	for name, st := range a.tenants {
		shed := make(map[string]int64, len(st.shed))
		for r, n := range st.shed {
			shed[r] = n
		}
		prio := st.cfg.Priority
		if prio <= 0 {
			prio = 5
		}
		out[name] = TenantStats{Admitted: st.admitted, InFlight: st.inflight, Shed: shed, Priority: prio}
	}
	return out
}

// tenantOf extracts the tenant identity from a request.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}
