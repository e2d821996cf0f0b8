package core

import (
	"bytes"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/models"
	"edgeinfer/internal/planlint"
)

// The static verifier must reject every corrupt-plan fixture class the
// runtime loader rejects dynamically (corrupt_test.go's corpus), and
// pass pristine plans untouched.

func TestVerifyPlanDataPristine(t *testing.T) {
	plan, _ := savedPlan(t)
	if issues := VerifyPlanData(bytes.NewReader(plan)); len(issues) != 0 {
		t.Fatalf("pristine plan produced issues: %v", issues)
	}
}

func TestVerifyPlanEngineClean(t *testing.T) {
	for _, model := range []string{"resnet18", "alexnet"} {
		g, err := models.BuildProxy(model, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		e, err := Build(g, DefaultConfig(gpusim.XavierNX(), 1))
		if err != nil {
			t.Fatal(err)
		}
		if issues := e.VerifyPlan(); len(issues) != 0 {
			t.Fatalf("%s: freshly built engine fails verification: %v", model, issues)
		}
	}
}

// Every hostile-header class the loader rejects must also fail static
// verification — with issues, never a panic or empty verdict.
func TestVerifyPlanDataHostileHeaders(t *testing.T) {
	plan, hlen := savedPlan(t)
	for name, data := range hostileHeaders(t, plan, hlen) {
		t.Run(name, func(t *testing.T) {
			issues := VerifyPlanData(bytes.NewReader(data))
			if !planlint.HasErrors(issues) {
				t.Fatalf("hostile header %s verified clean: %v", name, issues)
			}
		})
	}
}

func TestVerifyPlanDataTruncations(t *testing.T) {
	plan, hlen := savedPlan(t)
	cuts := []int{0, 3, 8, 10, 12, 12 + hlen/2, 12 + hlen, 12 + hlen + 2, len(plan) - 1}
	for _, cut := range cuts {
		issues := VerifyPlanData(bytes.NewReader(plan[:cut]))
		if !planlint.HasErrors(issues) {
			t.Fatalf("truncation at %d verified clean: %v", cut, issues)
		}
	}
}

func TestVerifyPlanDataHostileLengthFields(t *testing.T) {
	plan, hlen := savedPlan(t)
	for name, data := range hostileLengths(plan, hlen) {
		t.Run(name, func(t *testing.T) {
			if issues := VerifyPlanData(bytes.NewReader(data)); !planlint.HasErrors(issues) {
				t.Fatalf("%s verified clean: %v", name, issues)
			}
		})
	}
}

// Semantic defects the loader cannot see are still caught statically:
// a weight record pointing at a layer absent from the topology.
func TestVerifyPlanDataOrphanWeights(t *testing.T) {
	plan, hlen := savedPlan(t)
	bad := mutateHeader(t, plan, hlen, func(h *planHeader) {
		h.Layers = h.Layers[:len(h.Layers)-1] // drop the last layer; its weights remain
	})
	issues := VerifyPlanData(bytes.NewReader(bad))
	if !planlint.HasErrors(issues) {
		t.Fatalf("orphan weights verified clean: %v", issues)
	}
}

// Save refuses an engine whose plan fails IR verification: the builder
// gate behind EXPERIMENTS.md's "never serializes a failing plan".
func TestSaveRefusesFailingPlan(t *testing.T) {
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(g, DefaultConfig(gpusim.XavierNX(), 1))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the launch plan: reference a layer the graph doesn't have.
	e.Launches = append(e.Launches, Launch{Symbol: "ghost_kernel", Layers: []string{"ghost"}})
	var buf bytes.Buffer
	if err := e.Save(&buf); err == nil {
		t.Fatal("Save accepted an engine with a corrupt launch plan")
	} else if !bytes.Contains([]byte(err.Error()), []byte("refusing to serialize")) {
		t.Fatalf("unexpected error: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Save wrote %d bytes before refusing", buf.Len())
	}
}
