package edgeinfer

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/models"
)

// TestFormatBytesPinned holds the two magic-tagged artefact formats to
// their bytes: persisted timing caches, saved plans and byte-identical
// warm rebuilds all depend on a writer change never altering the stream.
// The EDGETC01 digest was captured before its codec moved onto the
// shared framing layer (internal/framed) and has not moved since. The
// two plan digests were re-pinned once, when the plan header changed
// from JSON text (EDGERT01) to framed primitives behind a string table
// (EDGERT02); the weight section's bytes are unchanged. cmd/rtexec pins
// the EDGEMDL1 container the same way.
func TestFormatBytesPinned(t *testing.T) {
	cache := core.NewTimingCache()
	cfg := core.DefaultConfig(gpusim.XavierNX(), 1)
	cfg.TimingCache = cache
	timed, err := core.Build(models.MustBuild("resnet18"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := core.Build(proxy, core.DefaultConfig(gpusim.XavierNX(), 1))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		save func(io.Writer) error
		want string
	}{
		{"EDGERT02 timing-only resnet18 NX build 1", timed.Save, "00305d1c17a8d1341bd539b6e17c7749ad778bf43bb14c353e42de16fede3990"},
		{"EDGERT02 numeric resnet18 proxy", numeric.Save, "79ab4fa94f0f83bd3ef8922b87be1cf30c260dd8d1ab8caea8329af6b9320611"},
		{"EDGETC01 cache of the timing-only build", cache.Save, "8786bf76e5ea803ada5ff5d93e4804b45fd5dbb3a3ea330e7935b3f080fdced7"},
	} {
		h := sha256.New()
		if err := tc.save(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
