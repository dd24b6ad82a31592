package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/service"
)

const streamLen = 3000

func stream(seed int64) []genRequest {
	g := newGenerator(seed)
	out := make([]genRequest, streamLen)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// TestGeneratorDeterministic: the same seed gives a byte-identical request
// stream, including every variant document; another seed does not.
func TestGeneratorDeterministic(t *testing.T) {
	a, b, c := stream(7), stream(7), stream(8)
	same := true
	for i := range a {
		if a[i].class != b[i].class || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two streams of seed 7", i)
		}
		if !bytes.Equal(a[i].body, c[i].body) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

// TestGeneratorShares: every block of ten holds eight hot repeats, one fresh
// horizon and one fresh variant; fresh keys never repeat and never collide
// with the hot set; every body decodes as a valid analysis request.
func TestGeneratorShares(t *testing.T) {
	reqs := stream(3)
	seen := map[string]bool{}
	for k := 0; k < numHot; k++ {
		seen[string(hotRequest(k).body)] = true
	}
	for b := 0; b+10 <= len(reqs); b += 10 {
		var n [3]int
		for _, r := range reqs[b : b+10] {
			n[r.class]++
		}
		if n != [3]int{8, 1, 1} {
			t.Fatalf("block at %d has class counts %v, want [8 1 1]", b, n)
		}
	}
	eng := service.NewEngine(service.EngineOptions{})
	for i, r := range reqs {
		var req service.AnalysisRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := eng.Validate(&req); err != nil {
			t.Fatalf("request %d (%s) invalid: %v", i, r.class, err)
		}
		key := string(r.body)
		switch {
		case r.class == classHot && !seen[key]:
			t.Fatalf("hot request %d is outside the hot set", i)
		case r.class != classHot && seen[key]:
			t.Fatalf("%s request %d repeats an earlier key", r.class, i)
		}
		seen[key] = true
	}
}

// TestModelCacheReuse replays the stream's model-cache accesses through an
// LRU of the engine's default 64 entries, warmed like the benchmark warms
// the server: no fresh-horizon request may find its hot model evicted.
func TestModelCacheReuse(t *testing.T) {
	const capacity = 64
	var lru []string // most recent last
	touch := func(k string) (hit bool) {
		for i, x := range lru {
			if x == k {
				lru = append(lru[:i], lru[i+1:]...)
				hit = true
				break
			}
		}
		lru = append(lru, k)
		if len(lru) > capacity {
			lru = lru[1:]
		}
		return hit
	}
	for c := 0; c < numCells; c++ {
		touch(string(rune('A' + c)))
	}
	for i, r := range stream(11) {
		switch r.class {
		case classHorizon:
			if !touch(string(rune('A' + r.cell))) {
				t.Fatalf("fresh-horizon request %d found hot model %d evicted", i, r.cell)
			}
		case classVariant:
			touch(string(r.body))
		}
	}
}
