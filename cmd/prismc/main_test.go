package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const modelSrc = `
ctmc
module m
  x : [0..2] init 0;
  [] x<2 -> 2 : (x'=x+1);
  [] x>0 -> 5 : (x'=x-1);
endmodule
label "full" = x=2;
rewards "time_full"
  x=2 : 1;
endrewards
`

func writeModel(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.pm")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(t.Context(), args, &b)
	return b.String(), err
}

func TestStats(t *testing.T) {
	out, err := runCapture(t, "-stats", writeModel(t, modelSrc))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "states:      3") {
		t.Fatalf("out = %q", out)
	}
}

// TestCancelledContext checks that a cancelled run stops in exploration and
// reports the cancellation instead of a result.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var b strings.Builder
	err := run(ctx, []string{"-prop", `S=? [ "full" ]`, writeModel(t, modelSrc)}, &b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b.Len() != 0 {
		t.Fatalf("cancelled run printed %q", b.String())
	}
}

func TestProperties(t *testing.T) {
	out, err := runCapture(t,
		"-prop", `P=? [ F<=1 "full" ]`,
		"-prop", `S=? [ "full" ]`,
		"-prop", `R{"time_full"}=? [ C<=1 ]`,
		writeModel(t, modelSrc))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "=") < 3 {
		t.Fatalf("out = %q", out)
	}
}

func TestBoundedVerdictOutput(t *testing.T) {
	out, err := runCapture(t, "-prop", `S<0.5 [ "full" ]`, writeModel(t, modelSrc))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("out = %q", out)
	}
}

func TestDOTOutput(t *testing.T) {
	out, err := runCapture(t, "-dot", "full", writeModel(t, modelSrc))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph ctmc") || !strings.Contains(out, "fillcolor") {
		t.Fatalf("out = %q", out)
	}
	// No highlight variant.
	out, err = runCapture(t, "-dot", "-", writeModel(t, modelSrc))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "fillcolor") {
		t.Fatalf("unexpected highlight: %q", out)
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCapture(t); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := runCapture(t, "nope.pm"); err == nil {
		t.Fatal("unreadable file accepted")
	}
	bad := writeModel(t, "dtmc\n")
	if _, err := runCapture(t, bad); err == nil {
		t.Fatal("bad model accepted")
	}
	if _, err := runCapture(t, "-prop", "garbage", writeModel(t, modelSrc)); err == nil {
		t.Fatal("bad property accepted")
	}
	if _, err := runCapture(t, "-max-states", "1", writeModel(t, modelSrc)); err == nil {
		t.Fatal("state limit not enforced")
	}
}

func TestUndefinedConstants(t *testing.T) {
	src := `
ctmc
const double rate;
const int cap;
module m
  x : [0..cap] init 0;
  [] x < cap -> rate : (x'=x+1);
endmodule
`
	path := writeModel(t, src)
	// Without -const: clear error naming the constant.
	if _, err := runCapture(t, path); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("err = %v", err)
	}
	// With -const: stats reflect the chosen capacity.
	out, err := runCapture(t, "-const", "rate=2.5", "-const", "cap=4", "-stats", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "states:      5") {
		t.Fatalf("out = %q", out)
	}
	// Override of a *defined* constant wins.
	src2 := `
ctmc
const int cap = 2;
module m
  x : [0..cap] init 0;
  [] x < cap -> 1 : (x'=x+1);
endmodule
`
	out, err = runCapture(t, "-const", "cap=6", "-stats", writeModel(t, src2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "states:      7") {
		t.Fatalf("out = %q", out)
	}
	// Malformed -const.
	if _, err := runCapture(t, "-const", "oops", path); err == nil {
		t.Fatal("malformed -const accepted")
	}
}
