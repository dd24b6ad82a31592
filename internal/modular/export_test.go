package modular

// ReplayTransitions regenerates the raw transitions of every explored state
// (self-loops and duplicates included) with the explorer's own successor
// generator, numbering targets through StateIndex, so external tests can
// assemble the same transitions with ctmc.Builder and compare chains.
func ReplayTransitions(ex *Explored, add func(from, to int, rate float64)) error {
	gen := ex.Model.newSuccessorGen()
	n := len(ex.Model.Vars)
	for from, st := range ex.States {
		if err := gen.successors(st); err != nil {
			return err
		}
		for k, rate := range gen.rates {
			add(from, ex.StateIndex(gen.succ[k*n:(k+1)*n]), rate)
		}
	}
	return nil
}
