package experiments

import (
	"strings"
	"testing"
)

// The soak's core guarantees (issue acceptance criteria): every faulted
// scenario detects, quarantines, rebuilds and readmits the sick
// replica; no wrong answer ever escapes; no quarantine leaks past the
// end of the soak; and the control scenario records nothing at all.
func TestChaosSoakInvariants(t *testing.T) {
	l := NewLab(Default())
	rows, err := l.ChaosSoak("resnet18", 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(chaosScenarios()) {
		t.Fatalf("%d rows, want %d", len(rows), len(chaosScenarios()))
	}
	for _, r := range rows {
		if r.Escapes != 0 {
			t.Errorf("%s: %d wrong-answer escapes", r.Scenario, r.Escapes)
		}
		if r.ActiveEnd != 3 {
			t.Errorf("%s: %d active replicas at soak end (leaked quarantine)\n%s",
				r.Scenario, r.ActiveEnd, strings.Join(r.Transcript, "\n"))
		}
		if r.Scenario == "none" {
			if r.Detections != 0 || r.Quarantines != 0 || len(r.Transcript) != 0 || r.FaultsInjected != 0 {
				t.Errorf("control scenario recorded activity: %+v", r)
			}
			continue
		}
		if r.Detections == 0 || r.Quarantines == 0 || r.Rebuilds == 0 || r.Readmissions == 0 {
			t.Errorf("%s: lifecycle incomplete: %+v\n%s", r.Scenario, r, strings.Join(r.Transcript, "\n"))
		}
		if r.FaultsInjected == 0 {
			t.Errorf("%s: no faults counted", r.Scenario)
		}
	}
}

// Same seed, same soak: the rendered study — table and transcripts — is
// byte-identical across runs.
func TestChaosSoakDeterministic(t *testing.T) {
	a, err := NewLab(Default()).RenderChaosSoakFor("resnet18", 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLab(Default()).RenderChaosSoakFor("resnet18", 24)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed chaos renders differ:\n--- a:\n%s\n--- b:\n%s", a, b)
	}
	if !strings.Contains(a, "rebuilding->readmitted") {
		t.Fatal("render missing the healing transcript")
	}
}
