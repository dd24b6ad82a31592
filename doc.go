// Package repro reproduces "Security Analysis of Automotive Architectures
// using Probabilistic Model Checking" (Mundhenk, Steinhorst, Lukasiewycz,
// Fahmy, Chakraborty — DAC 2015): a methodology that transforms an
// automotive E/E architecture into a Continuous-Time Markov Chain and uses
// probabilistic model checking to quantify the confidentiality, integrity
// and availability of message streams.
//
// The implementation is layered (see DESIGN.md for the full inventory):
//
//   - internal/linalg, internal/graph, internal/foxglynn, internal/expm —
//     numerical and graph kernels; CSR is the one sparse format, and the
//     graph algorithms run on it directly;
//   - internal/ctmc — Markov-chain analyses (uniformisation, steady state,
//     rewards, reachability);
//   - internal/modular, internal/prismlang, internal/csl — a PRISM-style
//     modelling language, state-space exploration and a CSL property
//     checker;
//   - internal/cvss, internal/asil, internal/arch, internal/transform,
//     internal/core — the paper's domain layer: component assessment,
//     architecture modelling, the CTMC transformation and the analysis API;
//   - internal/sim — a Gillespie simulator cross-validating every numeric
//     result;
//   - cmd/secanalyze, cmd/prismc, cmd/sweep, cmd/archgen — command-line
//     tools; the worked scenarios are checked Examples in internal/core.
//
// The benchmark suite in bench_test.go regenerates every table and figure
// of the paper's evaluation; EXPERIMENTS.md records paper-vs-measured
// values.
package repro
