package modular_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/modular"
)

// exploreDigest is the SHA-256 of one exploration: every decoded state
// vector in state order, then RowPtr, ColIdx, the bits of Val and the bits
// of Exit, all little-endian.
func exploreDigest(ex *modular.Explored) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, st := range states(ex) {
		for _, v := range st {
			put(uint64(v))
		}
	}
	r := ex.Chain.Rates
	for _, p := range r.RowPtr {
		put(uint64(p))
	}
	for _, c := range r.ColIdx {
		put(uint64(c))
	}
	for _, v := range r.Val {
		put(math.Float64bits(v))
	}
	for _, v := range ex.Chain.Exit {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExploreDigests pins the explored chains byte for byte: the six
// distinct Figure 5 chains (one per architecture and structure key), the
// 7-ECU synthetic chain and the three-word-key ring of TestExploreWideKeys.
// The digests were recorded before exploration moved onto packed keys; a
// change to state numbering, row order or any rate bit shows here.
func TestExploreDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("explores six Figure 5 chains and the 7-ECU synthetic chain")
	}
	want := map[string]string{
		"Architecture 1/confidentiality/unencrypted": "7d2f2de76638328bfb46fe4a6c92a33ff3a35eda53ea157fd15c569a15494e87",
		"Architecture 1/confidentiality/AES128":      "171a6a51aa53b035c593d03c52ff24425ed0d2bb5df156df8379256643ab878a",
		"Architecture 2/confidentiality/unencrypted": "d5c8865faebe59721fedbb3a3061c44687b770a3490dc918fde60da87ea6f9a6",
		"Architecture 2/confidentiality/AES128":      "66501969b4f1d47b9d845551701e98e675529c42d83f7b31f8f71d5d231324ad",
		"Architecture 3/confidentiality/unencrypted": "b74f52a8013b77bd511aeb67ffba37317b9e7b10cc5a79618adf763d9692832b",
		"Architecture 3/confidentiality/AES128":      "823f99aa9cfa58bbb3ef35b95b2710278eba4c2eed011c339c19af299249c3d2",
		"synthetic-7":                                "39984095424fafef41223e372feda7bf5f70f0277f74d80c5f5e093fe0d6a5f5",
		"wide-ring":                                  "649818d18793fd7a85dd65aef98a57322531f1dbb04203a2e7d7357aa3b4e88c",
	}
	got := map[string]string{}
	for _, ar := range []*arch.Architecture{arch.Architecture1(), arch.Architecture2(), arch.Architecture3()} {
		seen := map[string]bool{}
		for _, cat := range core.Categories {
			for _, prot := range core.Protections {
				key := fig5Analyzer.TransformOptions(cat, prot).StructureKey(arch.MessageM)
				if seen[key] {
					continue
				}
				seen[key] = true
				name := fmt.Sprintf("%s/%s/%s", ar.Name, cat, prot)
				got[name] = exploreDigest(explore(t, buildCell(t, ar, cat, prot)))
			}
		}
	}
	got["synthetic-7"] = exploreDigest(explore(t, syntheticModel(t)))
	wide, err := modular.WideRing(70)
	if err != nil {
		t.Fatal(err)
	}
	got["wide-ring"] = exploreDigest(explore(t, wide))
	if len(got) != len(want) {
		t.Fatalf("%d chains explored, want %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}
