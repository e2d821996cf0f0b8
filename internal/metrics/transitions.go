package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Transitions counts labeled state-machine transitions ("healthy" →
// "suspect", "quarantined" → "rebuilding", …). The serving fleet's
// supervisor records every replica state change here, so a health
// endpoint can report not just where each replica is but how it got
// there. Methods are not synchronized — the owner holds its own lock,
// as with Counters in internal/faults.
type Transitions struct {
	counts map[string]uint64
}

// Add records one from→to transition.
func (t *Transitions) Add(from, to string) {
	if t.counts == nil {
		t.counts = map[string]uint64{}
	}
	t.counts[from+"->"+to]++
}

// Snapshot returns a copy of the edge counts, keyed "from->to".
func (t *Transitions) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// String renders the non-zero edges in deterministic (sorted) order.
func (t *Transitions) String() string {
	if len(t.counts) == 0 {
		return "no transitions"
	}
	keys := make([]string, 0, len(t.counts))
	for k := range t.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, t.counts[k])
	}
	return strings.Join(parts, " ")
}
