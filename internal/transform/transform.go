// Package transform implements the paper's model transformation (Section
// 3.1): a validated automotive architecture plus one message stream and one
// security category become a modular CTMC specification whose states count
// the live exploits of every network interface (Eqs. 1–3), whose bus
// exploitability is a derived predicate over the attached ECUs (Eqs. 4–6),
// and whose "violated" label encodes the category-specific exploitability of
// the message (Eqs. 7–10).
//
// The documented resolutions of the paper's underspecified points (patch
// guard, bus-guardian access, instant exploits, multi-exploit rates) are
// controlled by Options flags so their impact can be measured (see the
// ablation benchmarks).
package transform

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/modular"
)

// Category is a security principle of the paper's message analysis.
type Category int

// Security categories.
const (
	Confidentiality Category = iota // protection from reading (Eq. 8/9 with η_C)
	Integrity                       // protection from creation/modification (η_G)
	Availability                    // protection from interruption (Eq. 7)
)

func (c Category) String() string {
	switch c {
	case Confidentiality:
		return "confidentiality"
	case Integrity:
		return "integrity"
	case Availability:
		return "availability"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// ParseCategory parses a user-facing category name, accepting the full
// names and the paper's initials (C, I/G, A). All the CLIs and the analysis
// service share this vocabulary.
func ParseCategory(s string) (Category, error) {
	switch strings.ToLower(s) {
	case "confidentiality", "c":
		return Confidentiality, nil
	case "integrity", "i", "g":
		return Integrity, nil
	case "availability", "a":
		return Availability, nil
	default:
		return 0, fmt.Errorf("transform: unknown category %q", s)
	}
}

// Protection is the message protection mechanism under evaluation.
type Protection int

// Message protections (paper Table 2).
const (
	Unencrypted Protection = iota
	CMAC128                // cryptographic hash: integrity only
	AES128                 // symmetric encryption: integrity + confidentiality
)

func (p Protection) String() string {
	switch p {
	case Unencrypted:
		return "unencrypted"
	case CMAC128:
		return "CMAC128"
	case AES128:
		return "AES128"
	default:
		return fmt.Sprintf("Protection(%d)", int(p))
	}
}

// ParseProtection parses a user-facing protection name ("unencrypted" or
// "none", "cmac128"/"cmac", "aes128"/"aes", case-insensitive).
func ParseProtection(s string) (Protection, error) {
	switch strings.ToLower(s) {
	case "unencrypted", "none":
		return Unencrypted, nil
	case "cmac128", "cmac":
		return CMAC128, nil
	case "aes128", "aes":
		return AES128, nil
	default:
		return 0, fmt.Errorf("transform: unknown protection %q", s)
	}
}

// Covers reports whether the protection provides a finite crypto-breaking
// rate for the category (paper Table 2). When false, the category is
// "instantly" exploitable as soon as a routing bus is exploitable.
func (p Protection) Covers(c Category) bool {
	switch c {
	case Integrity:
		return p == CMAC128 || p == AES128
	case Confidentiality:
		return p == AES128
	default: // Availability depends only on the bus system
		return false
	}
}

// LabelViolated is the label marking states where the message's security
// category is violated; LabelSecure is its complement. RewardViolated
// accrues 1 per unit time in violated states, so R{RewardViolated}=?[C<=T]
// is the paper's exploitable-time metric.
const (
	LabelViolated  = "violated"
	LabelSecure    = "secure"
	RewardViolated = "violated_time"
)

// Options configures the transformation.
type Options struct {
	// NMax is the per-interface exploit cap n_max (default 2, the paper's
	// experimental setting).
	NMax int
	// Category selects which security principle to encode (default
	// Confidentiality).
	Category Category
	// Protection selects the message protection (default Unencrypted).
	Protection Protection
	// MessageExploitRate overrides the crypto-breaking rate η_C/η_G for
	// covered categories; 0 selects the Table 2 value
	// (arch.RateMessageCrypto).
	MessageExploitRate float64
	// MessagePatchRate is ϕ_C/ϕ_G (Eq. 10). The paper's Table 2 assigns no
	// message patch rate, so the default 0 means a broken protection stays
	// broken.
	MessagePatchRate float64
	// LiteralPatchGuard restores the paper's literal Eq. (2): interfaces can
	// only be patched while their bus is exploitable. The default (false)
	// allows patching at any time; see DESIGN.md §4 deviation 1.
	LiteralPatchGuard bool
	// LinearPatchRates scales the patch rate with the number of live
	// exploits (k exploits are fixed at rate k·ϕ); the default keeps the
	// constant per-step rates of the paper's birth–death reading.
	LinearPatchRates bool
	// IncludeReliability adds random-hardware-failure state for every ECU
	// with a configured failure rate — the combined security + reliability
	// analysis of the paper's future-work list. Semantics: a failed ECU is
	// electrically silent, so it can neither be exploited further, nor be
	// patched, nor contribute to bus exploitability or endpoint compromise
	// (its latent exploits persist through the outage and reactivate on
	// repair). For the availability category the message is additionally
	// violated while its sender or a receiver is failed; confidentiality
	// and integrity are unaffected by failures (a dead ECU leaks nothing).
	IncludeReliability bool
}

func (o Options) withDefaults() Options {
	if o.NMax <= 0 {
		o.NMax = 2
	}
	return o
}

// Canonical returns a stable, self-delimiting encoding of every
// model-affecting option, with defaults applied — the transform's
// contribution to a content-addressed cache key. Two Options values with
// equal Canonical strings generate identical models for the same
// architecture and message, so a service may reuse a cached state space
// across requests that only differ in solver-side settings.
func (o Options) Canonical() string {
	o = o.withDefaults()
	return fmt.Sprintf("nmax=%d&cat=%s&prot=%s&mexp=%g&mpatch=%g&litguard=%t&linpatch=%t&rel=%t",
		o.NMax, o.Category, o.Protection, o.MessageExploitRate, o.MessagePatchRate,
		o.LiteralPatchGuard, o.LinearPatchRates, o.IncludeReliability)
}

// StructureKey encodes everything that shapes the explored chain of the
// named message's model: nmax, the patch-guard and patch-rate switches,
// reliability, and whether the protection covers the category. Only a
// covered category adds state (the message-protection variable, whose
// breaking command is guarded by the message's route), so only then do the
// message and its crypto rates join the key. Two cells of one architecture
// with equal keys explore to the same chain and differ only in their
// labelling, so a grid of them shares one exploration (see Structure).
func (o Options) StructureKey(msgName string) string {
	o = o.withDefaults()
	key := fmt.Sprintf("nmax=%d&litguard=%t&linpatch=%t&rel=%t",
		o.NMax, o.LiteralPatchGuard, o.LinearPatchRates, o.IncludeReliability)
	if !o.Protection.Covers(o.Category) {
		return key
	}
	return key + fmt.Sprintf("&prot=%s&mexp=%g&mpatch=%g", msgName, o.messageExploitRate(), o.messagePatchRate())
}

// messageExploitRate is the crypto-breaking rate of a covered category.
func (o Options) messageExploitRate() float64 {
	if o.MessageExploitRate <= 0 {
		return arch.RateMessageCrypto
	}
	return o.MessageExploitRate
}

// messagePatchRate is the re-keying rate; 0 adds no command.
func (o Options) messagePatchRate() float64 { return max(o.MessagePatchRate, 0) }

// ErrUnknownMessage is returned when the message name does not exist in the
// architecture.
var ErrUnknownMessage = errors.New("transform: unknown message")

// ErrStructureMismatch is returned when a cell is labelled on a structure
// whose StructureKey differs from the cell's.
var ErrStructureMismatch = errors.New("transform: cell does not share the structure")

// Result carries the generated model together with the variable references
// the analyses need.
type Result struct {
	Model *modular.Model
	// InterfaceVars maps "ecu/bus" to the exploit-count variable.
	InterfaceVars map[string]modular.VarRef
	// GuardianVars maps FlexRay bus name to its guardian exploit variable.
	GuardianVars map[string]modular.VarRef
	// ProtVar is the message-protection state variable (zero VarRef when the
	// category is uncovered and no variable exists).
	ProtVar    modular.VarRef
	HasProtVar bool
	// FailVars maps ECU names to their hardware-failure state variables
	// (populated only with Options.IncludeReliability).
	FailVars map[string]modular.VarRef
	Options  Options
}

// ifaceKey identifies an interface variable.
func ifaceKey(ecu, bus string) string { return ecu + "/" + bus }

// Structure is the labelling-independent half of a transformation: the
// variables and commands, which alone fix the explored chain, plus the
// structural labels exp_<ecu>, exp_bus_<bus> and failed_<ecu>. Label adds
// one cell's violated/secure labels and exploitable-time reward on top, so
// every cell with the structure's StructureKey is analysed on one
// exploration of Model.
type Structure struct {
	// Result holds the structural model and its variable references;
	// Options are those the structure was built with.
	Result
	arch *arch.Architecture
	key  string
}

// Build transforms the architecture for the named message under the given
// options: BuildStructure followed by Label for the options' cell.
func Build(a *arch.Architecture, msgName string, opts Options) (*Result, error) {
	s, err := BuildStructure(a, msgName, opts)
	if err != nil {
		return nil, err
	}
	return s.Label(msgName, s.Options.Category, s.Options.Protection)
}

// BuildStructure generates the variables, commands and structural labels
// of the named message's model under opts.
func BuildStructure(a *arch.Architecture, msgName string, opts Options) (*Structure, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	msg := a.Message(msgName)
	if msg == nil {
		return nil, fmt.Errorf("%w: %q in %s", ErrUnknownMessage, msgName, a.Name)
	}

	s := &Structure{
		Result: Result{
			Model:         modular.NewModel(a.Name + " / structure"),
			InterfaceVars: make(map[string]modular.VarRef),
			GuardianVars:  make(map[string]modular.VarRef),
			FailVars:      make(map[string]modular.VarRef),
			Options:       opts,
		},
		arch: a,
		key:  opts.StructureKey(msgName),
	}
	m := s.Model

	// Declare all state variables first: interface exploit counters
	// (Eq. 1/2) and FlexRay bus-guardian counters (Eq. 5).
	for i := range a.ECUs {
		e := &a.ECUs[i]
		for _, ifc := range e.Interfaces {
			name := fmt.Sprintf("x_%s_%s", e.Name, ifc.Bus)
			ref, err := m.AddVar(modular.VarDecl{
				Name: name, Module: e.Name, Min: 0, Max: opts.NMax,
			})
			if err != nil {
				return nil, err
			}
			s.InterfaceVars[ifaceKey(e.Name, ifc.Bus)] = ref
		}
	}
	for i := range a.Buses {
		b := &a.Buses[i]
		if b.Kind != arch.FlexRay {
			continue
		}
		ref, err := m.AddVar(modular.VarDecl{
			Name: "bg_" + b.Name, Module: "guardian_" + b.Name, Min: 0, Max: opts.NMax,
		})
		if err != nil {
			return nil, err
		}
		s.GuardianVars[b.Name] = ref
	}

	// Message protection state (Eq. 9/10), only when the protection covers
	// the category: 1 = intact, 0 = broken.
	if opts.Protection.Covers(opts.Category) {
		ref, err := m.AddVar(modular.VarDecl{
			Name: "prot_" + msg.Name, Module: "message_" + msg.Name, Min: 0, Max: 1, Init: 1,
		})
		if err != nil {
			return nil, err
		}
		s.ProtVar = ref
		s.HasProtVar = true
	}

	// Hardware-failure state (future-work extension; see Options).
	if opts.IncludeReliability {
		for i := range a.ECUs {
			e := &a.ECUs[i]
			if e.FailureRate <= 0 {
				continue
			}
			ref, err := m.AddVar(modular.VarDecl{
				Name: "f_" + e.Name, Module: "reliability_" + e.Name, IsBool: true,
			})
			if err != nil {
				return nil, err
			}
			s.FailVars[e.Name] = ref
		}
	}

	// withOperational adds the ¬failed conjunct when the ECU has
	// reliability state; otherwise the guard is returned unchanged.
	withOperational := func(g modular.Expr, ecuName string) modular.Expr {
		if f, ok := s.FailVars[ecuName]; ok {
			return modular.And(g, modular.Not(f))
		}
		return g
	}

	// Interface modules: exploit discovery (Eq. 1) and patching (Eq. 2).
	for i := range a.ECUs {
		e := &a.ECUs[i]
		patchRate, err := e.EffectivePatchRate()
		if err != nil {
			return nil, err
		}
		mod := m.AddModule(e.Name)
		for _, ifc := range e.Interfaces {
			x := s.InterfaceVars[ifaceKey(e.Name, ifc.Bus)]
			busExp := s.busExploitable(ifc.Bus)
			// Exploit: guard ε(b) > 0 ∧ x < nmax (∧ operational).
			mod.AddCommand(modular.Command{
				Guard: withOperational(modular.And(busExp, modular.Lt(x, modular.IntLit(opts.NMax))), e.Name),
				Updates: []modular.Update{{
					Rate:    modular.DoubleLit(ifc.ExploitRate),
					Assigns: []modular.Assign{{Var: x.Index, Expr: modular.Add(x, modular.IntLit(1))}},
				}},
			})
			// Patch: guard x > 0 (optionally also ε(b) > 0, the literal
			// Eq. 2 reading; maintenance needs a running ECU).
			patchGuard := withOperational(modular.Gt(x, modular.IntLit(0)), e.Name)
			if opts.LiteralPatchGuard {
				patchGuard = modular.And(patchGuard, busExp)
			}
			rate := modular.Expr(modular.DoubleLit(patchRate))
			if opts.LinearPatchRates {
				// k exploits are worked on in parallel: rate k·ϕ.
				rate = modular.Binary{Op: modular.OpMul, L: rate, R: x}
			}
			mod.AddCommand(modular.Command{
				Guard: patchGuard,
				Updates: []modular.Update{{
					Rate:    rate,
					Assigns: []modular.Assign{{Var: x.Index, Expr: modular.Sub(x, modular.IntLit(1))}},
				}},
			})
		}
	}

	// Bus guardian modules: attackable once a compromised ECU sits on the
	// bus (DESIGN.md §4 deviation 2).
	for i := range a.Buses {
		b := &a.Buses[i]
		if b.Kind != arch.FlexRay {
			continue
		}
		bg := s.GuardianVars[b.Name]
		attackerPresent := s.anyECUExploited(b.Name)
		mod := m.AddModule("guardian_" + b.Name)
		mod.AddCommand(modular.Command{
			Guard: modular.And(attackerPresent, modular.Lt(bg, modular.IntLit(opts.NMax))),
			Updates: []modular.Update{{
				Rate:    modular.DoubleLit(b.Guardian.ExploitRate),
				Assigns: []modular.Assign{{Var: bg.Index, Expr: modular.Add(bg, modular.IntLit(1))}},
			}},
		})
		patchGuard := modular.Expr(modular.Gt(bg, modular.IntLit(0)))
		if opts.LiteralPatchGuard {
			patchGuard = modular.And(patchGuard, attackerPresent)
		}
		mod.AddCommand(modular.Command{
			Guard: patchGuard,
			Updates: []modular.Update{{
				Rate:    modular.DoubleLit(b.Guardian.PatchRate),
				Assigns: []modular.Assign{{Var: bg.Index, Expr: modular.Sub(bg, modular.IntLit(1))}},
			}},
		})
	}

	// Reliability modules: fail / repair.
	if opts.IncludeReliability {
		for i := range a.ECUs {
			e := &a.ECUs[i]
			f, ok := s.FailVars[e.Name]
			if !ok {
				continue
			}
			mod := m.AddModule("reliability_" + e.Name)
			mod.AddCommand(modular.Command{
				Guard: modular.Not(f),
				Updates: []modular.Update{{
					Rate:    modular.DoubleLit(e.FailureRate),
					Assigns: []modular.Assign{{Var: f.Index, Expr: modular.BoolLit(true)}},
				}},
			})
			mod.AddCommand(modular.Command{
				Guard: f,
				Updates: []modular.Update{{
					Rate:    modular.DoubleLit(e.RepairRate),
					Assigns: []modular.Assign{{Var: f.Index, Expr: modular.BoolLit(false)}},
				}},
			})
			m.SetLabel("failed_"+e.Name, f)
		}
	}

	// Message protection module (Eq. 9/10).
	if s.HasProtVar {
		mod := m.AddModule("message_" + msg.Name)
		mod.AddCommand(modular.Command{
			Guard: modular.And(s.routeExploitable(msg), modular.Eq(s.ProtVar, modular.IntLit(1))),
			Updates: []modular.Update{{
				Rate:    modular.DoubleLit(opts.messageExploitRate()),
				Assigns: []modular.Assign{{Var: s.ProtVar.Index, Expr: modular.IntLit(0)}},
			}},
		})
		if rate := opts.messagePatchRate(); rate > 0 {
			mod.AddCommand(modular.Command{
				Guard: modular.Eq(s.ProtVar, modular.IntLit(0)),
				Updates: []modular.Update{{
					Rate:    modular.DoubleLit(rate),
					Assigns: []modular.Assign{{Var: s.ProtVar.Index, Expr: modular.IntLit(1)}},
				}},
			})
		}
	}

	// Diagnostic labels for per-component properties ("every security aspect
	// relevant", Section 2).
	for i := range a.ECUs {
		m.SetLabel("exp_"+a.ECUs[i].Name, s.ecuExploited(a.ECUs[i].Name))
	}
	for i := range a.Buses {
		m.SetLabel("exp_bus_"+a.Buses[i].Name, s.busExploitable(a.Buses[i].Name))
	}

	// Fold the literal scaffolding the predicate builders generate (e.g.
	// `true ∧ x < nmax` guards on internet-facing interfaces): exploration
	// evaluates every guard in every state.
	m.SimplifyAll()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("transform: generated model invalid: %w", err)
	}
	return s, nil
}

// Label returns the model of one cell on the structure: the structural
// model plus the cell's violated and secure labels and its exploitable-time
// reward. The cell must have the structure's StructureKey (any message
// when the category is uncovered, the structure's own message otherwise);
// ErrStructureMismatch reports one that does not. The returned model shares
// the structure's variables and commands, so an exploration of s.Model
// serves it through modular.(*Explored).WithModel.
func (s *Structure) Label(msgName string, cat Category, prot Protection) (*Result, error) {
	msg := s.arch.Message(msgName)
	if msg == nil {
		return nil, fmt.Errorf("%w: %q in %s", ErrUnknownMessage, msgName, s.arch.Name)
	}
	opts := s.Options
	opts.Category, opts.Protection = cat, prot
	if opts.StructureKey(msgName) != s.key {
		return nil, fmt.Errorf("%w: %s/%s/%s", ErrStructureMismatch, msgName, cat, prot)
	}
	res := s.Result
	res.Options = opts
	res.Model = s.Model.Relabel(fmt.Sprintf("%s / %s / %s / %s", s.arch.Name, msgName, cat, prot))
	raw := s.violated(msg, cat)
	violated := modular.Simplify(raw)
	res.Model.SetLabel(LabelViolated, violated)
	res.Model.SetLabel(LabelSecure, modular.Simplify(modular.Not(raw)))
	res.Model.AddReward(RewardViolated, modular.Reward{Guard: violated, Value: modular.DoubleLit(1)})
	if err := res.Model.Validate(); err != nil {
		return nil, fmt.Errorf("transform: generated model invalid: %w", err)
	}
	return &res, nil
}

// violated is the category's violation predicate for the message.
func (s *Structure) violated(msg *arch.Message, cat Category) modular.Expr {
	route := s.routeExploitable(msg)
	if cat == Availability {
		// Eq. 7: A(m) = ¬∨ ε(b); violated = ∨ ε(b). With reliability, a
		// failed endpoint interrupts the message stream just as surely as a
		// flooded bus.
		var down []modular.Expr
		for _, en := range append([]string{msg.Sender}, msg.Receivers...) {
			if f, ok := s.FailVars[en]; ok {
				down = append(down, f)
			}
		}
		if len(down) > 0 {
			return modular.Or(append([]modular.Expr{route}, down...)...)
		}
		return route
	}
	// Eq. 8: endpoints hold the symmetric key; their compromise breaks
	// confidentiality and integrity regardless of crypto.
	endpoint := []modular.Expr{s.ecuExploited(msg.Sender)}
	for _, rn := range msg.Receivers {
		endpoint = append(endpoint, s.ecuExploited(rn))
	}
	broken := route
	if s.HasProtVar {
		broken = modular.Eq(s.ProtVar, modular.IntLit(0))
	}
	// Without protection state the category is uncovered: Table 2's
	// "∞ (instant)", exploitable the moment the route is exposed (DESIGN.md
	// §4 deviation 3).
	return modular.Or(modular.Or(endpoint...), broken)
}

// operational is ¬failed for an ECU with reliability state, else true.
func (s *Structure) operational(name string) modular.Expr {
	if f, ok := s.FailVars[name]; ok {
		return modular.Not(f)
	}
	return modular.BoolLit(true)
}

// ecuExploited is Eq. 3, gated on the ECU being operational: a failed ECU
// is electrically silent and cannot act on any bus.
func (s *Structure) ecuExploited(name string) modular.Expr {
	e := s.arch.ECU(name)
	var parts []modular.Expr
	for _, ifc := range e.Interfaces {
		parts = append(parts, modular.Gt(s.InterfaceVars[ifaceKey(name, ifc.Bus)], modular.IntLit(0)))
	}
	return modular.And(modular.Or(parts...), s.operational(name))
}

// anyECUExploited holds when some ECU attached to the bus is exploited.
func (s *Structure) anyECUExploited(bus string) modular.Expr {
	var parts []modular.Expr
	for _, en := range s.arch.ECUsOnBus(bus) {
		parts = append(parts, s.ecuExploited(en))
	}
	return modular.Or(parts...)
}

// busExploitable is ε(b) > 0 (Eqs. 4–6).
func (s *Structure) busExploitable(name string) modular.Expr {
	switch s.arch.Bus(name).Kind {
	case arch.Internet:
		return modular.BoolLit(true) // Eq. 6
	case arch.FlexRay:
		// Eq. 5: an attached ECU and the bus guardian must both fall.
		return modular.And(s.anyECUExploited(name), modular.Gt(s.GuardianVars[name], modular.IntLit(0)))
	default: // CAN
		return s.anyECUExploited(name) // Eq. 4
	}
}

// routeExploitable holds when any bus carrying the message is exploitable.
func (s *Structure) routeExploitable(msg *arch.Message) modular.Expr {
	var parts []modular.Expr
	for _, bn := range msg.Buses {
		parts = append(parts, s.busExploitable(bn))
	}
	return modular.Or(parts...)
}
