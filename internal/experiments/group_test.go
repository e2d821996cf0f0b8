package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/tensor"
)

// groupShape renders the prefix tree classifyAll would run over images
// for es, one member per entry: "key<parent@from". It also returns the
// steps one image costs in the tree and run program by program.
func groupShape(l *Lab, es []*core.Engine, images []*tensor.Tensor) (members []string, steps, separate int) {
	todo := l.pending(es, images)
	g := core.NewGroup(todo...)
	for i, e := range todo {
		parent, from := g.Fork(i)
		members = append(members, fmt.Sprintf("%s<%d@%d", e.Key(), parent, from))
		n := len(e.Graph.Layers)
		steps += n - from
		separate += n
	}
	return members, steps, separate
}

// TestTableGroupsPinned pins the prefix trees the default Lab runs for
// Tables III, IV and V in benchtables -all order: the members (each
// program not yet classified on the table's image set, by the engine
// that represents it), each one's parent and fork point, and the steps
// one image costs. The separate counts are what the same programs cost
// run one by one, as they were before groups. The options size only the
// image sets; the engines are the default Lab's.
func TestTableGroupsPinned(t *testing.T) {
	l := NewLab(tinyOpts())
	l.Opts.EnginesPerSide = Default().EnginesPerSide
	var benign []*tensor.Tensor
	for _, s := range l.benignSet() {
		benign = append(benign, s.Image)
	}
	adv := l.consistencyImages()
	accuracy := []string{ // Tables III and IV: the same engines, and no program cached on either set
		"alexnet/AGX/build1<-1@0",  // alexnet's NX1 engine is this program
		"alexnet/host/build0<-1@0", // a reference shares nothing with a built engine
		"resnet18/AGX/build1<0@5",  // resnet18 and alexnet share their first 5 steps
		"resnet18/NX/build1<2@7",   // the two builds of a model differ at fc_head
		"resnet18/host/build0<1@5",
		"vgg16/AGX/build1<0@2", // every proxy begins with the binomial stem
		"vgg16/NX/build1<5@6",
		"vgg16/host/build0<1@2",
	}
	cases := []struct {
		name            string
		before          func() // what benchtables -all classified before
		es              []*core.Engine
		images          []*tensor.Tensor
		members         []string
		steps, separate int
	}{
		{"III", func() {}, l.accuracyEngines(), benign, accuracy, 44, 71},
		// IV classifies the set for V and VI too: its own 8 programs, then
		// the 3 programs among V's 24 engines that are none of IV's. VI's 12
		// engines are all programs of V's.
		{"IV", func() { l.Table3() }, l.advEngines(l.accuracyEngines()), adv, append(slices.Clip(accuracy),
			"inceptionv4/NX/build1<5@5",
			"inceptionv4/NX/build2<8@7",
			"alexnet/NX/build2<0@8",
		), 52, 99},
		// Every program of V's group ran in IV, on the same set.
		{"V", func() { l.Table4() }, l.advEngines(l.crossPlatformEngines(3)), adv, nil, 0, 0},
	}
	for _, tc := range cases {
		tc.before()
		members, steps, separate := groupShape(l, tc.es, tc.images)
		if !slices.Equal(members, tc.members) {
			t.Errorf("Table %s group:\n%s\nwant\n%s", tc.name, strings.Join(members, "\n"), strings.Join(tc.members, "\n"))
		}
		if steps != tc.steps || separate != tc.separate {
			t.Errorf("Table %s: an image costs %d steps (%d run separately), want %d (%d)", tc.name, steps, separate, tc.steps, tc.separate)
		}
	}
}

// TestProxyProgramsPinned pins which of each proxy's six engines (NX and
// AGX, builds 1–3) are one numeric program (core.Engine.SameNumerics).
// Engines of one program never disagree on an image, so these classes
// bound what Tables V and VI can count, and their number is the count of
// distinct programs a rebuilt fleet runs.
func TestProxyProgramsPinned(t *testing.T) {
	l := NewLab(tinyOpts())
	for _, tc := range []struct{ model, classes string }{
		{"resnet18", "{NX1 NX3} {NX2 AGX1 AGX2 AGX3}"},
		{"vgg16", "{NX1 NX3 AGX2 AGX3} {NX2 AGX1}"},
		{"inceptionv4", "{NX1 NX3 AGX1 AGX3} {NX2 AGX2}"},
		{"alexnet", "{NX1 AGX1 AGX3} {NX2 NX3 AGX2}"},
		{"googlenet", "{NX1 NX2 NX3 AGX2} {AGX1 AGX3}"},
	} {
		var reps []*core.Engine
		var classes [][]string
		for _, platform := range []string{"NX", "AGX"} {
			for build := 1; build <= 3; build++ {
				e := l.proxyEngine(tc.model, platform, build)
				i := slices.IndexFunc(reps, e.SameNumerics)
				if i < 0 {
					i = len(reps)
					reps, classes = append(reps, e), append(classes, nil)
				}
				classes[i] = append(classes[i], fmt.Sprintf("%s%d", platform, build))
			}
		}
		var got []string
		for _, c := range classes {
			got = append(got, "{"+strings.Join(c, " ")+"}")
		}
		if g := strings.Join(got, " "); g != tc.classes {
			t.Errorf("%s programs: %s, want %s", tc.model, g, tc.classes)
		}
	}
}
