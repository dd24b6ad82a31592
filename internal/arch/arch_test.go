package arch

import (
	"errors"
	"os"
	"testing"

	"repro/internal/asil"
)

func TestCaseStudyArchitecturesValidate(t *testing.T) {
	for _, a := range CaseStudy() {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
}

func TestArchitecture1Structure(t *testing.T) {
	a := Architecture1()
	if got := a.ECUsOnBus(BusCAN1); len(got) != 3 {
		t.Fatalf("ECUs on CAN1 = %v", got)
	}
	if got := a.ECUsOnBus(BusCAN2); len(got) != 2 {
		t.Fatalf("ECUs on CAN2 = %v (want GW, PS)", got)
	}
	m := a.Message(MessageM)
	if m == nil || m.Sender != ParkAssist || m.Receivers[0] != PowerSteering {
		t.Fatalf("message m = %+v", m)
	}
	if len(m.Buses) != 2 {
		t.Fatalf("m routed over %v", m.Buses)
	}
}

func TestArchitecture2AddsPAInterface(t *testing.T) {
	a := Architecture2()
	pa := a.ECU(ParkAssist)
	if len(pa.Interfaces) != 2 {
		t.Fatalf("PA interfaces = %v", pa.Interfaces)
	}
	m := a.Message(MessageM)
	if len(m.Buses) != 1 || m.Buses[0] != BusCAN2 {
		t.Fatalf("m routed over %v, want CAN2 only", m.Buses)
	}
	// Architecture 1 must be unaffected (deep independence).
	if len(Architecture1().ECU(ParkAssist).Interfaces) != 1 {
		t.Fatal("Architecture1 mutated by Architecture2 construction")
	}
}

func TestArchitecture3FlexRay(t *testing.T) {
	a := Architecture3()
	fr := a.Bus(BusFlexRay)
	if fr == nil || fr.Kind != FlexRay {
		t.Fatalf("FR bus = %+v", fr)
	}
	if fr.Guardian == nil || fr.Guardian.ExploitRate != RateBusGuardian {
		t.Fatalf("guardian = %+v", fr.Guardian)
	}
	if a.Bus(BusCAN1) != nil {
		t.Fatal("Architecture 3 still has CAN1")
	}
}

func TestTable2PatchRatesViaASIL(t *testing.T) {
	a := Architecture1()
	want := map[string]float64{ParkAssist: 12, PowerSteering: 4, Gateway: 4, Telematics: 52}
	for name, rate := range want {
		e := a.ECU(name)
		got, err := e.EffectivePatchRate()
		if err != nil {
			t.Fatal(err)
		}
		if got != rate {
			t.Fatalf("%s: ϕ = %v, want %v (Table 2)", name, got, rate)
		}
	}
}

func TestEffectivePatchRateOverride(t *testing.T) {
	e := ECU{Name: "x", ASIL: asil.D, PatchRate: 99}
	got, err := e.EffectivePatchRate()
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("override ignored: %v", got)
	}
}

func TestValidateFailures(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(a *Architecture)
	}{
		{"no name", func(a *Architecture) { a.Name = "" }},
		{"dup bus", func(a *Architecture) { a.Buses = append(a.Buses, Bus{Name: BusCAN1, Kind: CAN}) }},
		{"dup ecu", func(a *Architecture) { a.ECUs = append(a.ECUs, a.ECUs[0]) }},
		{"unknown iface bus", func(a *Architecture) { a.ECUs[0].Interfaces[0].Bus = "nope" }},
		{"negative rate", func(a *Architecture) { a.ECUs[0].Interfaces[0].ExploitRate = -1 }},
		{"bad vector", func(a *Architecture) { a.ECUs[0].Interfaces[0].CVSSVector = "zzz" }},
		{"no interfaces", func(a *Architecture) { a.ECUs[0].Interfaces = nil }},
		{"dup iface", func(a *Architecture) {
			a.ECUs[0].Interfaces = append(a.ECUs[0].Interfaces, a.ECUs[0].Interfaces[0])
		}},
		{"guardian on CAN", func(a *Architecture) { a.Buses[0].Guardian = &Guardian{} }},
		{"unknown sender", func(a *Architecture) { a.Messages[0].Sender = "nope" }},
		{"unknown receiver", func(a *Architecture) { a.Messages[0].Receivers = []string{"nope"} }},
		{"no receivers", func(a *Architecture) { a.Messages[0].Receivers = nil }},
		{"no route", func(a *Architecture) { a.Messages[0].Buses = nil }},
		{"unknown route bus", func(a *Architecture) { a.Messages[0].Buses = []string{"nope"} }},
		{"route revisits", func(a *Architecture) { a.Messages[0].Buses = []string{BusCAN1, BusCAN1} }},
		{"sender off route", func(a *Architecture) { a.Messages[0].Buses = []string{BusCAN2} }},
		{"sender is receiver", func(a *Architecture) { a.Messages[0].Receivers = []string{ParkAssist} }},
		{"dup message", func(a *Architecture) { a.Messages = append(a.Messages, a.Messages[0]) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			a := Architecture1()
			m.mut(a)
			if err := a.Validate(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestFlexRayNeedsGuardian(t *testing.T) {
	a := Architecture3()
	a.Bus(BusFlexRay).Guardian = nil
	if err := a.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Architecture3()
	c := a.Clone()
	c.ECUs[0].Interfaces[0].ExploitRate = 1234
	c.Bus(BusFlexRay).Guardian.ExploitRate = 999
	c.Messages[0].Buses[0] = "X"
	if a.ECUs[0].Interfaces[0].ExploitRate == 1234 {
		t.Fatal("interface aliased")
	}
	if a.Bus(BusFlexRay).Guardian.ExploitRate == 999 {
		t.Fatal("guardian aliased")
	}
	if a.Messages[0].Buses[0] == "X" {
		t.Fatal("route aliased")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, a := range CaseStudy() {
		data, err := a.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != a.Name || len(b.ECUs) != len(a.ECUs) || len(b.Buses) != len(a.Buses) {
			t.Fatalf("round trip changed shape: %+v", b)
		}
		data2, err := b.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatal("round trip not stable")
		}
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte(`{"name":""}`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FromJSON([]byte(`{bad json`)); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := FromJSON([]byte(`{"name":"x","buses":[{"name":"b","kind":"Hyperloop"}]}`)); err == nil {
		t.Fatal("bad bus kind accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := t.TempDir() + "/arch.json"
	a := Architecture1()
	data, err := a.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != a.Name {
		t.Fatalf("loaded %q", b.Name)
	}
	if _, err := LoadFile(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBusKindText(t *testing.T) {
	if s := FlexRay.String(); s != "FlexRay" {
		t.Fatalf("String = %q", s)
	}
	var k BusKind
	if err := k.UnmarshalText([]byte("Internet")); err != nil || k != Internet {
		t.Fatalf("unmarshal: %v %v", k, err)
	}
	if _, err := BusKind(9).MarshalText(); err == nil {
		t.Fatal("bad kind marshalled")
	}
}
