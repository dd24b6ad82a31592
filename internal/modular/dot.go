package modular

import (
	"fmt"
	"strings"
)

// ExportDOT renders the explored CTMC as a GraphViz digraph. States
// satisfying the named label (if non-empty) are highlighted; edge labels
// carry the transition rates. Intended for the small illustrative models of
// papers and docs — for big chains the output is legal but unreadable.
func (e *Explored) ExportDOT(highlightLabel string) (string, error) {
	var highlight []bool
	if highlightLabel != "" {
		var err error
		highlight, err = e.LabelMask(highlightLabel)
		if err != nil {
			return "", err
		}
	}
	var b strings.Builder
	b.WriteString("digraph ctmc {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=ellipse, fontsize=10];\n")
	var st []int
	for i := range e.N() {
		st = e.State(i, st)
		attrs := fmt.Sprintf("label=\"s%d\\n%s\"", i, dotEscape(e.Model.FormatState(st)))
		if i == e.InitIndex() {
			attrs += ", penwidth=2"
		}
		if highlight != nil && highlight[i] {
			attrs += ", style=filled, fillcolor=\"#f4cccc\""
		}
		fmt.Fprintf(&b, "  s%d [%s];\n", i, attrs)
	}
	for i := 0; i < e.N(); i++ {
		cols, vals := e.Chain.Rates.Row(i)
		for k, j := range cols {
			fmt.Fprintf(&b, "  s%d -> s%d [label=\"%.4g\", fontsize=9];\n", i, j, vals[k])
		}
	}
	b.WriteString("}\n")
	return b.String(), nil
}

func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
