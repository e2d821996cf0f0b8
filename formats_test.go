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
// the bytes they had before their codecs were moved onto the shared
// framing layer (internal/framed): persisted timing caches, saved plans
// and byte-identical warm rebuilds all depend on a writer change never
// altering the stream. The digests were captured at the commit preceding
// that refactor; cmd/rtexec pins the EDGEMDL1 container the same way.
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
		{"EDGERT01 timing-only resnet18 NX build 1", timed.Save, "d1dbef1da52063d77a9197ec4e58bba6dd0577c3d6e8a71e6a6188ffc1d0172f"},
		{"EDGERT01 numeric resnet18 proxy", numeric.Save, "d8c7887a3cb68f05aa5469418115d3f9235b53a2ff5f6b44b230b1a5634d5e84"},
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
