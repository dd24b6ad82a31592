package shard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("n1=http://h1:8600, n2=http://h2:8600/")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["n1"] != "http://h1:8600" || peers["n2"] != "http://h2:8600" {
		t.Fatalf("peers = %v", peers)
	}
	for _, bad := range []string{
		"",
		"n1",
		"n1=",
		"=http://h1:8600",
		"n1=not a url",
		"n1=http://h1,n1=http://h2",
		"a:b=http://h1:8600",
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestNewRouterValidation(t *testing.T) {
	peers := map[string]string{"n1": "http://h1", "n2": "http://h2"}
	if _, err := NewRouter("", peers, 0); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewRouter("n3", peers, 0); err == nil {
		t.Fatal("self outside peer set accepted")
	}
	r, err := NewRouter("n1", peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Self() != "n1" || len(r.Nodes()) != 2 {
		t.Fatalf("router = %v %v", r.Self(), r.Nodes())
	}
}

func TestOwnerSelf(t *testing.T) {
	r, err := NewRouter("n1", map[string]string{"n1": "http://h1", "n2": "http://h2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawSelf, sawOther := false, false
	for i := 0; i < 200; i++ {
		node, self := r.Owner(string(rune('a' + i%26)))
		if self != (node == "n1") {
			t.Fatalf("self flag inconsistent for %s", node)
		}
		if self {
			sawSelf = true
		} else {
			sawOther = true
		}
	}
	if !sawSelf || !sawOther {
		t.Fatal("expected keys on both nodes")
	}
	var nilRouter *Router
	if node, self := nilRouter.Owner("k"); node != "" || !self {
		t.Fatal("nil router must own everything locally")
	}
}

func TestForwardMarksAndTraces(t *testing.T) {
	var gotForwarded, gotTraceparent, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForwarded = r.Header.Get(ForwardedHeader)
		gotTraceparent = r.Header.Get(obs.TraceparentHeader)
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	r, err := NewRouter("n1", map[string]string{"n1": "http://unused", "n2": ts.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	tr := obs.NewTracer(col, false)
	ctx, sp := tr.StartSpan(context.Background(), "test.forward")
	resp, err := r.Forward(ctx, "n2", http.MethodPost, "/v1/analyses", []byte(`{"x":1}`), "application/json", nil)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotForwarded != "n1" {
		t.Fatalf("%s = %q, want n1", ForwardedHeader, gotForwarded)
	}
	if gotTraceparent == "" {
		t.Fatal("no traceparent propagated")
	}
	if tc, ok := obs.ParseTraceparent(gotTraceparent); !ok || tc.TraceID != tr.TraceID() {
		t.Fatalf("traceparent %q does not carry trace %s", gotTraceparent, tr.TraceID())
	}
	if gotBody != `{"x":1}` {
		t.Fatalf("body = %q", gotBody)
	}
}

func TestForwardUnknownNode(t *testing.T) {
	r, err := NewRouter("n1", map[string]string{"n1": "http://h1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Forward(context.Background(), "nope", http.MethodGet, "/", nil, "", nil); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestForwardUnreachableFailsFast(t *testing.T) {
	// A closed port must return an error (the caller's local-fallback path),
	// not hang.
	r, err := NewRouter("n1", map[string]string{
		"n1": "http://unused",
		"n2": "http://127.0.0.1:1", // reserved port, nothing listens
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Forward(context.Background(), "n2", http.MethodGet, "/v1/healthz", nil, "", nil); err == nil {
		t.Fatal("forward to dead peer succeeded")
	}
}
