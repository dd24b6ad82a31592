package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator = %q", lines[1])
	}
	// Column alignment: "value" column starts at the same offset in every
	// row.
	off := strings.Index(lines[0], "value")
	if got := strings.Index(lines[2], "1"); got != off {
		t.Fatalf("misaligned: %q (want col %d, got %d)", lines[2], off, got)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("x")
	if len(tb.rows) != 1 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	if !strings.Contains(tb.String(), "x") {
		t.Fatal("row lost")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("name", "note")
	tb.AddRow("a,b", `say "hi"`)
	tb.AddRow("plain", "ok")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "name,note\n\"a,b\",\"say \"\"hi\"\"\"\nplain,ok\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestPercent(t *testing.T) {
	cases := map[float64]string{
		0.122:    "12.2%",
		0.00668:  "0.668%",
		0.0697:   "6.97%",
		0.000001: "1.00e-04%",
	}
	for in, want := range cases {
		if got := Percent(in); got != want {
			t.Fatalf("Percent(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRate(t *testing.T) {
	if got := Rate(52); got != "52" {
		t.Fatalf("Rate(52) = %q", got)
	}
	if got := Rate(1.85); got != "1.85" {
		t.Fatalf("Rate(1.85) = %q", got)
	}
}
