package faults

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Draw-order stability: the device and network injectors each
// draw from their own fixrand stream, so adding a new fault layer (or
// consulting one mid-run) must never shift the verdict sequence of
// another. These goldens pin the exact verdict signatures of the device
// and network streams; if either literal ever changes, an existing
// fault layer's replay determinism broke — seeded chaos runs recorded
// before the change would no longer reproduce.

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// deviceDrawSignature consults a device injector through a fixed
// sequence of launches and H2D copies.
func deviceDrawSignature() string {
	in := Scenario("draworder", 0.3).New("golden")
	var b strings.Builder
	for i := 0; i < 24; i++ {
		lf := in.Launch(i, "k_conv")
		fmt.Fprintf(&b, "%d%d", bit(lf.Fail), bit(lf.StallSec > 0))
	}
	for i := 0; i < 4; i++ {
		retries, err := in.MemcpyH2D(4096)
		fmt.Fprintf(&b, ";m%d%d", retries, bit(err != nil))
	}
	fmt.Fprintf(&b, "|%v", in.Counters())
	return b.String()
}

// netDrawSignature is deviceDrawSignature for the network injector.
func netDrawSignature() string {
	p := NetPlan{
		Seed: "draworder", SlowClientRate: 0.3, SlowChunkBytes: 8,
		SlowChunkDelay: time.Millisecond, DisconnectRate: 0.3,
		BurstEvery: 4, BurstFactor: 3,
	}
	in := p.NewNet("golden")
	var b strings.Builder
	for i := 0; i < 24; i++ {
		_, _, slow := in.SlowClient()
		fmt.Fprintf(&b, "%d%d%d", bit(slow), bit(in.Disconnect()), in.Burst(i))
	}
	fmt.Fprintf(&b, "|%v", in.Counters())
	return b.String()
}

// The golden literals. Regenerate ONLY if a deliberate, documented
// stream-layout change is being made — and say so in the commit.
const (
	goldenDeviceSignature = "110000000101000100000011000111110100011101100010;m00;m00;m10;m00|clock-drop=8 launch-fail=7 stream-stall=12 memcpy-retry=1"
	goldenNetSignature    = "001001001011003001001001113001011001003001001101003001101011003111001011|slow-client=4 client-gone=6 burst=5"
)

func TestDeviceDrawOrderGolden(t *testing.T) {
	if got := deviceDrawSignature(); got != goldenDeviceSignature {
		t.Fatalf("device draw order shifted:\n got %s\nwant %s", got, goldenDeviceSignature)
	}
}

func TestNetDrawOrderGolden(t *testing.T) {
	if got := netDrawSignature(); got != goldenNetSignature {
		t.Fatalf("net draw order shifted:\n got %s\nwant %s", got, goldenNetSignature)
	}
}

// TestKindNamesArePinned freezes the existing kind strings (counter
// rendering is part of archived chaos transcripts) and the invariant
// that new kinds are appended, never inserted.
func TestKindNamesArePinned(t *testing.T) {
	want := map[Kind]string{
		KindClockDrop:      "clock-drop",
		KindLaunchFail:     "launch-fail",
		KindStreamStall:    "stream-stall",
		KindMemcpyRetry:    "memcpy-retry",
		KindMemcpyFail:     "memcpy-fail",
		KindAllocFail:      "alloc-fail",
		KindBitFlip:        "bit-flip",
		KindLatencyInflate: "latency-inflate",
		KindStuckKernel:    "stuck-kernel",
		KindSilentCorrupt:  "silent-corrupt",
		KindSlowClient:     "slow-client",
		KindClientGone:     "client-gone",
		KindBurst:          "burst",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("Kind(%d) renders %q, want %q", k, k.String(), name)
		}
	}
	if KindBurst != 12 || nKinds != 13 {
		t.Fatal("new kinds must append after the network kinds, never shift them")
	}
}
