// Package fleetgen generates seeded randomized fleets of vehicle attack
// trees — the IoV-style heavy-traffic workload (Lauinger et al., PAPERS.md)
// for the distributed analysis service. A Spec is fully deterministic: the
// same seed always yields byte-identical trees, so fleets double as
// reproducible benchmark corpora (the root package's
// BenchmarkAttackTreeFleet) and as batch load for a running secserved ring.
package fleetgen

import (
	"fmt"
	"math/rand"

	"repro/internal/attacktree"
	"repro/internal/service"
)

// Spec configures a fleet. The zero value is not valid: set Count.
type Spec struct {
	// Seed drives every random choice; equal specs generate equal fleets.
	Seed int64
	// Count is the number of vehicle trees to generate.
	Count int
	// MaxDepth bounds gate nesting (default 3).
	MaxDepth int
	// MaxBranch bounds children per gate (default 3, minimum 2).
	MaxBranch int
	// MaxLeaves caps attack steps per tree (default 9), bounding the
	// compiled state space at 2^MaxLeaves.
	MaxLeaves int
	// CountermeasureProb is the chance a leaf carries a countermeasure
	// (default 0.35).
	CountermeasureProb float64
}

func (s Spec) withDefaults() (Spec, error) {
	if s.Count <= 0 {
		return s, fmt.Errorf("fleetgen: count must be positive, got %d", s.Count)
	}
	if s.MaxDepth <= 0 {
		s.MaxDepth = 3
	}
	if s.MaxBranch < 2 {
		s.MaxBranch = 3
	}
	if s.MaxLeaves <= 0 {
		s.MaxLeaves = 9
	}
	if s.CountermeasureProb == 0 {
		s.CountermeasureProb = 0.35
	}
	if s.CountermeasureProb < 0 || s.CountermeasureProb > 1 {
		return s, fmt.Errorf("fleetgen: countermeasure probability %g outside [0, 1]", s.CountermeasureProb)
	}
	return s, nil
}

// Attack-surface vocabulary for generated leaves: realistic automotive
// entry points with the CVSS v2 exploitability vectors the paper's Table 1
// interpretation assigns them.
var surfaces = []struct {
	name string
	cvss string
}{
	{"cellular_exploit", "AV:N/AC:M/Au:N"},
	{"wifi_hotspot", "AV:N/AC:L/Au:S"},
	{"bluetooth_pairing", "AV:A/AC:M/Au:N"},
	{"v2x_message", "AV:A/AC:H/Au:N"},
	{"tpms_spoof", "AV:A/AC:L/Au:N"},
	{"obd_dongle", "AV:L/AC:L/Au:N"},
	{"usb_media", "AV:L/AC:M/Au:N"},
	{"debug_port", "AV:L/AC:H/Au:S"},
	{"key_fob_relay", "AV:A/AC:M/Au:S"},
	{"ota_tamper", "AV:N/AC:H/Au:M"},
}

var defences = []struct {
	name       string
	cost       float64
	rateFactor float64
	patchRate  float64
}{
	{"firewall", 15, 0.2, 0},
	{"ids", 20, 0.5, 2},
	{"code_signing", 25, 0, 0},
	{"secure_boot", 30, 0.1, 0},
	{"session_auth", 10, 0.4, 0},
	{"ota_patching", 12, 1, 6},
}

// Generate builds the fleet. Trees are named vehicle_<i> and are valid by
// construction (the generator still validates each one as a guard against
// regressions).
func Generate(spec Spec) ([]*attacktree.Tree, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	trees := make([]*attacktree.Tree, 0, spec.Count)
	for i := 0; i < spec.Count; i++ {
		g := &gen{spec: spec, rng: rng}
		t := &attacktree.Tree{
			Name: fmt.Sprintf("vehicle_%04d", i),
			Root: g.gate(1),
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("fleetgen: generated invalid tree %s: %w", t.Name, err)
		}
		trees = append(trees, t)
	}
	return trees, nil
}

type gen struct {
	spec   Spec
	rng    *rand.Rand
	leaves int
	nodes  int
}

// gate emits a random gate node; its children are further gates (while
// depth and the leaf budget allow) or leaves.
func (g *gen) gate(depth int) *attacktree.Node {
	g.nodes++
	kinds := []string{attacktree.GateOR, attacktree.GateOR, attacktree.GateAND, attacktree.GateSAND}
	n := &attacktree.Node{
		Name: fmt.Sprintf("stage_%d", g.nodes),
		Gate: kinds[g.rng.Intn(len(kinds))],
	}
	width := 2 + g.rng.Intn(g.spec.MaxBranch-1)
	for c := 0; c < width; c++ {
		remaining := g.spec.MaxLeaves - g.leaves
		if remaining <= 0 {
			break
		}
		// Recurse only while a subtree can still hold at least two leaves.
		if depth < g.spec.MaxDepth && remaining >= 2 && g.rng.Float64() < 0.4 {
			n.Children = append(n.Children, g.gate(depth+1))
		} else {
			n.Children = append(n.Children, g.leaf())
		}
	}
	// A gate needs children even when the leaf budget ran dry mid-loop.
	if len(n.Children) == 0 {
		n.Children = append(n.Children, g.leaf())
	}
	if len(n.Children) == 1 && n.Gate != attacktree.GateOR {
		n.Gate = attacktree.GateOR // degenerate gate; keep semantics obvious
	}
	return n
}

func (g *gen) leaf() *attacktree.Node {
	g.leaves++
	s := surfaces[g.rng.Intn(len(surfaces))]
	n := &attacktree.Node{
		Name: fmt.Sprintf("%s_%d", s.name, g.leaves),
		CVSS: s.cvss,
	}
	if g.rng.Float64() < g.spec.CountermeasureProb {
		d := defences[g.rng.Intn(len(defences))]
		n.Countermeasure = &attacktree.Countermeasure{
			Name:       fmt.Sprintf("%s_%d", d.name, g.leaves),
			Cost:       d.cost,
			RateFactor: d.rateFactor,
			PatchRate:  d.patchRate,
		}
	}
	return n
}

// Requests renders the fleet as inline attack-tree analysis requests — the
// batch load shape Engine.RunBatch and a secserved ring consume. Horizon 0
// defaults to 1 year server-side.
func Requests(spec Spec, horizon float64) ([]*service.AnalysisRequest, error) {
	trees, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	reqs := make([]*service.AnalysisRequest, 0, len(trees))
	for _, t := range trees {
		inline, err := t.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, &service.AnalysisRequest{
			Kind:    service.KindAttackTree,
			Inline:  inline,
			Horizon: horizon,
		})
	}
	return reqs, nil
}
