package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/attacktree"
	"repro/internal/core"
	"repro/internal/transform"
)

// Cache keys are content addresses over the canonical encodings the
// pipeline layers expose: arch.(*Architecture).CanonicalJSON for the system
// under analysis, transform.Options.Canonical for everything that shapes
// the generated model (StructureKey for the explored chain alone), and
// core.Analyzer.Canonical for the solver-side settings. Hashing the canonical forms (rather than the request JSON)
// makes the cache insensitive to field order, whitespace and defaulted
// fields in client requests.

// hashKey hashes length-prefixed parts so no concatenation of distinct part
// lists collides.
func hashKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modelKey addresses the transform + exploration prefix of an analysis
// (a core.Prepared from PrepareChainContext): the architecture, the
// message, and transform.Options.StructureKey, which leaves out the cell
// wherever the cell does not shape the chain. Cells of one message that
// share a chain therefore share an entry, which carries the label masks of
// all of them.
func modelKey(archCanon []byte, msg string, opts transform.Options) string {
	return hashKey("model", string(archCanon), msg, opts.StructureKey(msg))
}

// resultKey addresses a fully solved outcome. mode separates the grid,
// single-cell and property request shapes; cat/prot/property are zero for
// the shapes that do not use them. The transform canonical carries every
// model-side option — nmax, the category × protection cell, the patch and
// reliability switches — and an.Canonical the solver-side ones; together
// with the architecture and message they pin the full analysis (two
// requests differing only in nmax hash to different keys).
func resultKey(archCanon []byte, msg string, an core.Analyzer, mode requestMode,
	cat transform.Category, prot transform.Protection, property string) string {
	return hashKey("result", string(archCanon), msg, an.Canonical(),
		an.TransformOptions(cat, prot).Canonical(), string(mode), property)
}

// treeModelKey addresses the compile + exploration prefix of an attack-tree
// analysis (a treePrepared): the tree's canonical JSON and the compile
// options (the applied countermeasure set).
func treeModelKey(treeCanon []byte, opts attacktree.CompileOptions) string {
	return hashKey("treemodel", string(treeCanon), opts.Canonical())
}

// treeResultKey addresses a solved attack-tree outcome: the tree, the
// countermeasure selection, the solver-side settings (horizon, accuracy,
// budgets via an.Canonical) and the property, when one was given instead of
// the synthesized queries.
func treeResultKey(treeCanon []byte, opts attacktree.CompileOptions, an core.Analyzer, property string) string {
	return hashKey("result:tree", string(treeCanon), opts.Canonical(), an.Canonical(), property)
}
