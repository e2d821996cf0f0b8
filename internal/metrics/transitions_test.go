package metrics

import "testing"

func TestTransitionsCountAndRender(t *testing.T) {
	var tr Transitions
	if tr.String() != "no transitions" {
		t.Fatalf("empty render %q", tr.String())
	}
	tr.Add("healthy", "suspect")
	tr.Add("suspect", "quarantined")
	tr.Add("healthy", "suspect")
	snap := tr.Snapshot()
	if got := snap["healthy->suspect"]; got != 2 {
		t.Fatalf("healthy->suspect = %d, want 2", got)
	}
	if got, ok := snap["suspect->healthy"]; ok {
		t.Fatalf("unrecorded edge = %d, want absent", got)
	}
	if len(snap) != 2 {
		t.Fatalf("%d edges, want 2", len(snap))
	}
	// Deterministic sorted rendering, independent of insertion order.
	want := "healthy->suspect=2 suspect->quarantined=1"
	if tr.String() != want {
		t.Fatalf("render %q, want %q", tr.String(), want)
	}
	snap["healthy->suspect"] = 99
	if tr.Snapshot()["healthy->suspect"] != 2 {
		t.Fatal("snapshot aliases the live counter")
	}
}

func TestTransitionsZeroValue(t *testing.T) {
	var tr Transitions
	if len(tr.Snapshot()) != 0 {
		t.Fatal("zero-value Transitions has edges")
	}
	tr.Add("a", "b")
	if tr.Snapshot()["a->b"] != 1 {
		t.Fatal("zero-value Transitions unusable")
	}
}
