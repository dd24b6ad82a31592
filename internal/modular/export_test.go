package modular

// ReplayTransitions regenerates the raw transitions of every explored state
// (self-loops and duplicates included) with the explorer's own successor
// generator, numbering the successor keys through the state index (-1 when
// a key is not indexed), so external tests can assemble the same
// transitions with ctmc.Builder and compare chains.
func ReplayTransitions(ex *Explored, add func(from, to int, rate float64)) error {
	gen := ex.Model.newSuccessorGen(&ex.keys.layout)
	w := ex.keys.layout.words
	var st []int
	for from := range ex.N() {
		st = ex.State(from, st)
		if err := gen.successors(st, ex.keys.key(from)); err != nil {
			return err
		}
		for k, rate := range gen.rates {
			to, _ := ex.keys.find(gen.keys[k*w : (k+1)*w])
			add(from, to, rate)
		}
	}
	return nil
}

// WideRing is the token-ring model of TestExploreWideKeys.
var WideRing = wideRing
