package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/service"
)

// reqClass is the cache path a generated service-mix request is meant to
// take through the engine.
type reqClass int

const (
	// classHot repeats a key of the warmed hot set: a result-cache hit.
	classHot reqClass = iota
	// classHorizon asks a hot model for a fresh horizon: the result cache
	// misses and the model cache hits.
	classHorizon
	// classVariant is a fresh inline variant of a case-study architecture:
	// both caches miss and the result is written to the store.
	classVariant
)

func (c reqClass) String() string {
	return [...]string{"hot", "horizon", "variant"}[c]
}

// blockMix is the composition of each block of ten generated requests, in
// seeded order: 80% hot repeats, 10% fresh horizons, 10% fresh variants.
var blockMix = [10]reqClass{
	classHot, classHot, classHot, classHot, classHot, classHot, classHot, classHot,
	classHorizon, classVariant,
}

// hotHorizons are the horizons (years) of the hot set: 27 Figure 5 cells ×
// 4 horizons = 108 keys, fewer than the engine's default 1024 results.
var hotHorizons = [4]float64{1, 2, 3, 4}

const (
	numCells = 27 // 3 architectures × 3 categories × 3 protections
	numHot   = numCells * len(hotHorizons)
)

// cellOf splits a cell index into architecture, category and protection
// indices.
func cellOf(c int) (a, cat, prot int) { return c / 9, c / 3 % 3, c % 3 }

// genRequest is one generated request: its intended class, its cell and
// horizon, and the exact request body.
type genRequest struct {
	class   reqClass
	cell    int
	horizon float64
	body    []byte
}

// generator produces the seeded service-mix request stream. The stream
// depends only on the seed: request i is the same whatever the timing.
//
// Fresh horizons visit the 27 hot models round-robin in a seeded order, and
// each block of ten holds one fresh variant. Between two visits of a hot
// model the model cache therefore sees at most 26 other hot models and 27
// variants, fewer than its 64 entries, so a fresh horizon never finds its
// model evicted.
type generator struct {
	rng          *rand.Rand
	block        []reqClass
	horizonCells []int
	variantCells []int
	nHorizon     int
	nVariant     int
	horizons     map[[2]float64]bool // (cell, horizon) pairs already asked
}

func newGenerator(seed int64) *generator {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7))
	return &generator{
		rng:          rng,
		horizonCells: rng.Perm(numCells),
		variantCells: rng.Perm(numCells),
		horizons:     map[[2]float64]bool{},
	}
}

// hotRequest returns the request for hot key k (cell k/4, horizon k%4).
func hotRequest(k int) genRequest {
	c, h := k/len(hotHorizons), hotHorizons[k%len(hotHorizons)]
	return genRequest{class: classHot, cell: c, horizon: h, body: requestBody(c, h, nil)}
}

func (g *generator) next() genRequest {
	if len(g.block) == 0 {
		g.block = append(g.block, blockMix[:]...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	class := g.block[0]
	g.block = g.block[1:]
	switch class {
	case classHorizon:
		c := g.horizonCells[g.nHorizon%numCells]
		g.nHorizon++
		var h float64
		for {
			h = 1 + 3*g.rng.Float64()
			if !g.horizons[[2]float64{float64(c), h}] && !isHotHorizon(h) {
				break
			}
		}
		g.horizons[[2]float64{float64(c), h}] = true
		return genRequest{class: class, cell: c, horizon: h, body: requestBody(c, h, nil)}
	case classVariant:
		c := g.variantCells[g.nVariant%numCells]
		g.nVariant++
		h := hotHorizons[g.rng.IntN(len(hotHorizons))]
		a, _, _ := cellOf(c)
		ar := caseStudy(a)
		// A unique name makes every variant a new content address; the
		// perturbed patch rate makes it a new model as well.
		ar.Name = fmt.Sprintf("%s variant %d", ar.Name, g.nVariant)
		e := &ar.ECUs[g.rng.IntN(len(ar.ECUs))]
		base, err := e.EffectivePatchRate()
		if err != nil {
			panic(err) // the case-study architectures are valid
		}
		e.PatchRate = base * (0.95 + 0.1*g.rng.Float64())
		inline, err := ar.ToJSON()
		if err != nil {
			panic(err)
		}
		return genRequest{class: class, cell: c, horizon: h, body: requestBody(c, h, inline)}
	default:
		return hotRequest(g.rng.IntN(numHot))
	}
}

func isHotHorizon(h float64) bool {
	for _, x := range hotHorizons {
		if h == x {
			return true
		}
	}
	return false
}

// requestBody encodes a single-cell analysis of cell c at horizon h, on the
// built-in architecture or, when inline is set, on that document. The
// server holds the POST open until the job finishes.
func requestBody(c int, h float64, inline []byte) []byte {
	a, cat, prot := cellOf(c)
	req := service.AnalysisRequest{
		Inline:      inline,
		Horizon:     h,
		Category:    core.Categories[cat].String(),
		Protection:  core.Protections[prot].String(),
		WaitSeconds: 60,
	}
	if inline == nil {
		req.Architecture = fmt.Sprintf("builtin:%d", a+1)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data
	}
	return b
}
