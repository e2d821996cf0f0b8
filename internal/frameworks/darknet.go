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
		switch r.Op {
		case graph.OpConv:
			emit("convolutional",
				fmt.Sprintf("# name=%s", r.Name),
				fmt.Sprintf("filters=%d", r.Conv.OutC),
				fmt.Sprintf("size=%d", r.Conv.Kernel),
				fmt.Sprintf("stride=%d", r.Conv.Stride),
				fmt.Sprintf("pad=%d", r.Conv.Pad),
				fmt.Sprintf("groups=%d", max(r.Conv.Groups, 1)),
				"activation=linear")
		case graph.OpMaxPool:
			emit("maxpool", fmt.Sprintf("# name=%s", r.Name),
				fmt.Sprintf("size=%d", r.Pool.Kernel),
				fmt.Sprintf("stride=%d", r.Pool.Stride),
				fmt.Sprintf("padding=%d", r.Pool.Pad))
		case graph.OpAvgPool:
			emit("avgpool", fmt.Sprintf("# name=%s", r.Name),
				fmt.Sprintf("size=%d", r.Pool.Kernel),
				fmt.Sprintf("stride=%d", r.Pool.Stride),
				fmt.Sprintf("padding=%d", r.Pool.Pad))
		case graph.OpGlobalAvgPool:
			emit("avgpool", fmt.Sprintf("# name=%s", r.Name), "global=1")
		case graph.OpReLU:
			emit("activation", fmt.Sprintf("# name=%s", r.Name), "activation=relu")
		case graph.OpLeakyReLU:
			emit("activation", fmt.Sprintf("# name=%s", r.Name), "activation=leaky",
				fmt.Sprintf("slope=%g", r.Alpha))
		case graph.OpSigmoid:
			emit("activation", fmt.Sprintf("# name=%s", r.Name), "activation=logistic")
		case graph.OpFC:
			emit("connected", fmt.Sprintf("# name=%s", r.Name),
				fmt.Sprintf("output=%d", r.OutUnits))
		case graph.OpBatchNorm:
			emit("batchnorm", fmt.Sprintf("# name=%s", r.Name))
		case graph.OpLRN:
			emit("lrn", fmt.Sprintf("# name=%s", r.Name),
				fmt.Sprintf("size=%d", r.LRNSize), fmt.Sprintf("alpha=%g", r.Alpha),
				fmt.Sprintf("beta=%g", r.LRNBeta), fmt.Sprintf("k=%g", r.LRNK))
		case graph.OpSoftmax:
			emit("softmax", fmt.Sprintf("# name=%s", r.Name))
		case graph.OpDropout:
			emit("dropout", fmt.Sprintf("# name=%s", r.Name), "probability=0.5")
		case graph.OpUpsample:
			emit("upsample", fmt.Sprintf("# name=%s", r.Name), "stride=2")
		case graph.OpFlatten:
			emit("flatten", fmt.Sprintf("# name=%s", r.Name))
		case graph.OpScale:
			emit("scale_channels", fmt.Sprintf("# name=%s", r.Name))
		case graph.OpConcat:
			idxs := make([]string, len(r.Inputs))
			for i, in := range r.Inputs {
				v, err := ref(in)
				if err != nil {
					return nil, err
				}
				idxs[i] = strconv.Itoa(v)
			}
			emit("route", fmt.Sprintf("# name=%s", r.Name),
				"layers="+strings.Join(idxs, ","))
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
			emit("shortcut", fmt.Sprintf("# name=%s", r.Name),
				fmt.Sprintf("from=%d", from), "activation=linear")
		default:
			return nil, fmt.Errorf("frameworks: darknet cannot express op %v", r.Op)
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
	switch s.kind {
	case "convolutional":
		r.Op = graph.OpConv
		r.Conv.OutC = atoi(s.kv["filters"])
		r.Conv.Kernel = atoi(s.kv["size"])
		r.Conv.Stride = atoi(s.kv["stride"])
		r.Conv.Pad = atoi(s.kv["pad"])
		r.Conv.Groups = atoi(s.kv["groups"])
	case "maxpool":
		r.Op = graph.OpMaxPool
		r.Pool.Kernel = atoi(s.kv["size"])
		r.Pool.Stride = atoi(s.kv["stride"])
		r.Pool.Pad = atoi(s.kv["padding"])
	case "avgpool":
		if s.kv["global"] == "1" {
			r.Op = graph.OpGlobalAvgPool
		} else {
			r.Op = graph.OpAvgPool
			r.Pool.Kernel = atoi(s.kv["size"])
			r.Pool.Stride = atoi(s.kv["stride"])
			r.Pool.Pad = atoi(s.kv["padding"])
		}
	case "activation":
		switch s.kv["activation"] {
		case "leaky":
			r.Op = graph.OpLeakyReLU
			r.Alpha = atof(s.kv["slope"])
		case "logistic":
			r.Op = graph.OpSigmoid
		default:
			r.Op = graph.OpReLU
		}
	case "connected":
		r.Op = graph.OpFC
		r.OutUnits = atoi(s.kv["output"])
	case "batchnorm":
		r.Op = graph.OpBatchNorm
	case "lrn":
		r.Op = graph.OpLRN
		r.LRNSize = atoi(s.kv["size"])
		r.Alpha = atof(s.kv["alpha"])
		r.LRNBeta = atof(s.kv["beta"])
		r.LRNK = atof(s.kv["k"])
	case "softmax":
		r.Op = graph.OpSoftmax
	case "dropout":
		r.Op = graph.OpDropout
	case "upsample":
		r.Op = graph.OpUpsample
	case "flatten":
		r.Op = graph.OpFlatten
	case "scale_channels":
		r.Op = graph.OpScale
	default:
		return r, fmt.Errorf("frameworks: unknown darknet section [%s]", s.kind)
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

func atof(s string) float32 {
	v, _ := strconv.ParseFloat(s, 32)
	return float32(v)
}
