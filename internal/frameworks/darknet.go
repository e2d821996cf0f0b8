package frameworks

import (
	"fmt"
	"strconv"
	"strings"

	"edgeinfer/internal/graph"
)

// Darknet-style serialization: an INI-like .cfg where sections are layers
// in order and cross-references are layer indices (route/shortcut), plus
// the shared weight payload. Faithful to Darknet's quirk that the graph
// is a numbered list, not a named DAG.

// darknetKinds names each op's section; route (concat) and shortcut
// (add) are wiring the exporter writes by hand.
var darknetKinds = map[graph.OpType]string{
	graph.OpConv: "convolutional", graph.OpMaxPool: "maxpool", graph.OpAvgPool: "avgpool",
	graph.OpGlobalAvgPool: "avgpool", graph.OpReLU: "activation",
	graph.OpLeakyReLU: "activation", graph.OpSigmoid: "activation",
	graph.OpFC: "connected", graph.OpBatchNorm: "batchnorm", graph.OpLRN: "lrn",
	graph.OpSoftmax: "softmax", graph.OpDropout: "dropout", graph.OpUpsample: "upsample",
	graph.OpFlatten: "flatten", graph.OpScale: "scale_channels",
}

var darknetOps = invert(darknetKinds)

// darknetSettings is the fixed line each op's section ends with.
var darknetSettings = map[graph.OpType]string{
	graph.OpConv: "activation=linear", graph.OpGlobalAvgPool: "global=1",
	graph.OpReLU: "activation=relu", graph.OpLeakyReLU: "activation=leaky",
	graph.OpSigmoid: "activation=logistic", graph.OpDropout: "probability=0.5",
	graph.OpUpsample: "stride=2",
}

// darknetNames follows Darknet's cfg keys: `padding` is the explicit
// pixel count for both conv and pool (`pad=1` is Darknet's size/2 flag).
var darknetNames = map[string]string{
	"out": "filters", "kernel": "size", "stride": "stride", "pad": "padding",
	"groups": "groups", "units": "output", "slope": "slope",
	"size": "size", "alpha": "alpha", "beta": "beta", "k": "k",
}

func darknetArch(h header, rs []graph.LayerRecord) ([]byte, error) {
	// name -> section index ("data" is -1, sections are 0-based).
	index := map[string]int{"data": -1}
	var b strings.Builder
	fmt.Fprintf(&b, "[net]\n# name=%s\n# task=%s\nbatch=%d\nchannels=%d\nheight=%d\nwidth=%d\n",
		h.Name, h.Task, h.InputShape[0], h.InputShape[1], h.InputShape[2], h.InputShape[3])
	for _, o := range h.Outputs {
		fmt.Fprintf(&b, "# output=%s\n", o)
	}
	sec := 0
	emit := func(kind string, kv ...string) {
		fmt.Fprintf(&b, "\n[%s]\n", kind)
		for _, line := range kv {
			b.WriteString(line + "\n")
		}
	}
	ref := func(name string) (int, error) {
		idx, ok := index[name]
		if !ok {
			return 0, fmt.Errorf("frameworks: darknet forward reference to %q", name)
		}
		return idx, nil
	}
	for _, r := range rs {
		// Darknet sections implicitly consume the previous section; when
		// the input is elsewhere, a route section redirects first.
		if len(r.Inputs) == 1 {
			in, err := ref(r.Inputs[0])
			if err != nil {
				return nil, err
			}
			if in != sec-1 && r.Op != graph.OpAdd && r.Op != graph.OpConcat {
				emit("route", fmt.Sprintf("layers=%d", in), "# redirect")
				sec++
			}
		}
		lines := []string{"# name=" + r.Name}
		switch r.Op {
		case graph.OpConcat:
			idxs := make([]string, len(r.Inputs))
			for i, in := range r.Inputs {
				v, err := ref(in)
				if err != nil {
					return nil, err
				}
				idxs[i] = strconv.Itoa(v)
			}
			emit("route", append(lines, "layers="+strings.Join(idxs, ","))...)
		case graph.OpAdd:
			if len(r.Inputs) != 2 {
				return nil, fmt.Errorf("frameworks: darknet shortcut needs 2 inputs, layer %s has %d", r.Name, len(r.Inputs))
			}
			a, err := ref(r.Inputs[0])
			if err != nil {
				return nil, err
			}
			c, err := ref(r.Inputs[1])
			if err != nil {
				return nil, err
			}
			// shortcut consumes the previous section and references `from`.
			if a != sec-1 && c != sec-1 {
				emit("route", fmt.Sprintf("layers=%d", a), "# redirect")
				sec++
				a = sec - 1
			}
			from := c
			if c == sec-1 {
				from = a
			}
			emit("shortcut", append(lines, fmt.Sprintf("from=%d", from), "activation=linear")...)
		default:
			kind, ok := darknetKinds[r.Op]
			if !ok {
				return nil, fmt.Errorf("frameworks: darknet cannot express op %v", r.Op)
			}
			for _, p := range params(&r) {
				lines = append(lines, darknetNames[p.key]+"="+p.String())
			}
			if set, ok := darknetSettings[r.Op]; ok {
				lines = append(lines, set)
			}
			emit(kind, lines...)
		}
		index[r.Name] = sec
		sec++
	}
	return []byte(b.String()), nil
}

// parseDarknet parses the cfg back. Section names come from the
// "# name=" comments the exporter writes; unnamed redirect routes are
// skipped as pure wiring.
func parseDarknet(arch []byte) (header, []graph.LayerRecord, error) {
	sections, net, err := splitCfg(string(arch))
	if err != nil {
		return header{}, nil, err
	}
	h := header{
		Name: net["# name"], Task: net["# task"],
		InputShape: [4]int{atoi(net["batch"]), atoi(net["channels"]), atoi(net["height"]), atoi(net["width"])},
	}
	for _, o := range strings.Split(net["# outputs"], ",") {
		if o != "" {
			h.Outputs = append(h.Outputs, o)
		}
	}
	nameOf := map[int]string{-1: "data"}
	var rs []graph.LayerRecord
	prevName := "data"
	for i, s := range sections {
		name := s.kv["# name"]
		switch s.kind {
		case "route":
			var inputs []string
			for _, part := range strings.Split(s.kv["layers"], ",") {
				idx := atoi(strings.TrimSpace(part))
				inputs = append(inputs, nameOf[idx])
			}
			if name == "" { // pure redirect
				nameOf[i] = inputs[0]
				prevName = inputs[0]
				continue
			}
			rs = append(rs, graph.LayerRecord{Name: name, Op: graph.OpConcat, Inputs: inputs})
		case "shortcut":
			from := nameOf[atoi(s.kv["from"])]
			rs = append(rs, graph.LayerRecord{Name: name, Op: graph.OpAdd, Inputs: []string{prevName, from}})
		default:
			r, err := darknetRec(s, name, prevName)
			if err != nil {
				return h, nil, err
			}
			rs = append(rs, r)
		}
		nameOf[i] = name
		prevName = name
	}
	return h, rs, nil
}

func darknetRec(s cfgSection, name, prev string) (graph.LayerRecord, error) {
	r := graph.LayerRecord{Name: name, Inputs: []string{prev}}
	op, ok := darknetOps[s.kind]
	if !ok {
		return r, fmt.Errorf("frameworks: unknown darknet section [%s]", s.kind)
	}
	// darknetOps gives the lowest op of a shared kind (average pool,
	// plain ReLU); the section's settings pick the others.
	switch {
	case s.kind == "avgpool" && s.kv["global"] == "1":
		op = graph.OpGlobalAvgPool
	case s.kind == "activation" && s.kv["activation"] == "leaky":
		op = graph.OpLeakyReLU
	case s.kind == "activation" && s.kv["activation"] == "logistic":
		op = graph.OpSigmoid
	}
	r.Op = op
	for _, p := range params(&r) {
		p.set(s.kv[darknetNames[p.key]])
	}
	return r, nil
}

type cfgSection struct {
	kind string
	kv   map[string]string
}

// splitCfg splits a darknet cfg into the [net] header and layer sections.
func splitCfg(cfg string) ([]cfgSection, map[string]string, error) {
	var sections []cfgSection
	var net map[string]string
	var cur *cfgSection
	var outputs []string
	for _, raw := range strings.Split(cfg, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			kind := line[1 : len(line)-1]
			if kind == "net" {
				net = map[string]string{}
				cur = &cfgSection{kind: kind, kv: net}
			} else {
				sections = append(sections, cfgSection{kind: kind, kv: map[string]string{}})
				cur = &sections[len(sections)-1]
			}
			continue
		}
		if cur == nil {
			return nil, nil, fmt.Errorf("frameworks: cfg line outside section: %q", line)
		}
		if strings.HasPrefix(line, "# output=") {
			outputs = append(outputs, strings.TrimPrefix(line, "# output="))
			continue
		}
		if eq := strings.Index(line, "="); eq > 0 {
			cur.kv[strings.TrimSpace(line[:eq])] = strings.TrimSpace(line[eq+1:])
		}
	}
	if net == nil {
		return nil, nil, fmt.Errorf("frameworks: cfg missing [net] section")
	}
	net["# outputs"] = strings.Join(outputs, ",")
	return sections, net, nil
}

func atoi(s string) int {
	v, _ := strconv.Atoi(s)
	return v
}
