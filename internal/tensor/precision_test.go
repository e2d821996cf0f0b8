package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
)

func TestPrecisionString(t *testing.T) {
	if FP32.String() != "fp32" || FP16.String() != "fp16" || INT8.String() != "int8" {
		t.Fatal("precision strings wrong")
	}
	if Precision(99).String() != "unknown" {
		t.Fatal("unknown precision string")
	}
}

func TestPrecisionBytes(t *testing.T) {
	if FP32.Bytes() != 4 || FP16.Bytes() != 2 || INT8.Bytes() != 1 {
		t.Fatal("precision byte sizes wrong")
	}
}

func TestRoundFP16Exact(t *testing.T) {
	// Values exactly representable in binary16 are unchanged.
	for _, v := range []float32{0, 1, -1, 0.5, 2048, -0.25, 65504} {
		if got := RoundFP16(v); got != v {
			t.Errorf("RoundFP16(%v)=%v, want exact", v, got)
		}
	}
}

func TestRoundFP16KnownRounding(t *testing.T) {
	// 1 + 2^-11 is exactly between 1 and 1+2^-10; round-to-even gives 1.
	v := float32(1 + math.Pow(2, -11))
	if got := RoundFP16(v); got != 1 {
		t.Errorf("round-to-even: RoundFP16(%v)=%v want 1", v, got)
	}
	// 1 + 3*2^-11 rounds up to 1+2^-9... check it rounds to nearest: 1+2^-10*2
	v2 := float32(1 + 3*math.Pow(2, -11))
	want := float32(1 + 2*math.Pow(2, -10))
	if got := RoundFP16(v2); got != want {
		t.Errorf("RoundFP16(%v)=%v want %v", v2, got, want)
	}
}

func TestRoundFP16Overflow(t *testing.T) {
	if !math.IsInf(float64(RoundFP16(1e6)), 1) {
		t.Fatal("large value should overflow to +Inf")
	}
	if !math.IsInf(float64(RoundFP16(-1e6)), -1) {
		t.Fatal("large negative should overflow to -Inf")
	}
}

func TestRoundFP16NaN(t *testing.T) {
	nan := float32(math.NaN())
	if !math.IsNaN(float64(RoundFP16(nan))) {
		t.Fatal("NaN not preserved")
	}
}

func TestRoundFP16Subnormal(t *testing.T) {
	// Smallest positive half subnormal is 2^-24.
	v := float32(math.Pow(2, -24))
	if got := RoundFP16(v); got != v {
		t.Errorf("subnormal 2^-24: got %v want %v", got, v)
	}
	// 2^-26 underflows to zero.
	if got := RoundFP16(float32(math.Pow(2, -26))); got != 0 {
		t.Errorf("2^-26 should flush to 0, got %v", got)
	}
}

// Property: FP16 rounding is idempotent and relative error is bounded by
// 2^-11 for normal-range values.
func TestRoundFP16Properties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := fixrand.New(seed)
		v := float32((src.Float64()*2 - 1) * 1000)
		r := RoundFP16(v)
		if RoundFP16(r) != r {
			return false // not idempotent
		}
		if v != 0 {
			rel := math.Abs(float64(r-v)) / math.Abs(float64(v))
			if rel > math.Pow(2, -10) { // generous bound incl. subnormal edge
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantScale(t *testing.T) {
	x := NewVec(4)
	copy(x.Data, []float32{-254, 1, 0, 127})
	if got := QuantScale(x); got != 2 {
		t.Fatalf("scale %v want 2", got)
	}
	z := NewVec(3)
	if QuantScale(z) != 1 {
		t.Fatal("zero tensor scale should be 1")
	}
}

func TestQuantizeINT8Clamps(t *testing.T) {
	if QuantizeINT8(1000, 1) != 127 || QuantizeINT8(-1000, 1) != -127 {
		t.Fatal("int8 clamp failed")
	}
}

func TestQuantDequantRoundTripBound(t *testing.T) {
	// Property: |dequant(quant(v)) - v| <= scale/2 for v within range,
	// plus one float32 ulp of v for the roundings of v/scale and q*scale
	// (at |v| near 1270 an ulp is 1.2e-4, so no fixed slack fits).
	if err := quick.Check(func(seed uint64) bool {
		src := fixrand.New(seed)
		scale := float32(src.Float64()*10 + 0.01)
		v := float32((src.Float64()*2 - 1)) * scale * 127
		q := QuantizeINT8(v, scale)
		d := DequantizeINT8(q, scale)
		a := float32(math.Abs(float64(v)))
		ulp := math.Nextafter32(a, float32(math.Inf(1))) - a
		return math.Abs(float64(d-v)) <= float64(scale)/2+float64(ulp)
	}, &quick.Config{MaxCount: 2000, Rand: quickRand("quant-dequant-round-trip")}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTensorINT8(t *testing.T) {
	x := NewVec(3)
	copy(x.Data, []float32{-127, 0, 127})
	y, scale := RoundTensorINT8(x)
	if scale != 1 {
		t.Fatalf("scale %v want 1", scale)
	}
	if y.Data[0] != -127 || y.Data[2] != 127 {
		t.Fatalf("round trip %v", y.Data)
	}
}

func TestRoundTensorFP16InPlace(t *testing.T) {
	x := NewVec(2)
	copy(x.Data, []float32{1.0000001, 2})
	y := RoundTensorFP16(x)
	if y != x {
		t.Fatal("should return same tensor")
	}
	if x.Data[0] != 1 {
		t.Fatalf("not rounded: %v", x.Data[0])
	}
}

func TestRoundValueDispatch(t *testing.T) {
	if RoundValue(1.5, FP32, 1) != 1.5 {
		t.Fatal("fp32 should be identity")
	}
	if RoundValue(1.0004883, FP16, 1) == 1.0004883 {
		// 1.0004883 is representable? 1+2^-11 is not; ensure rounding occurred
		t.Log("fp16 kept value (representable)")
	}
	got := RoundValue(3.4, INT8, 1)
	if got != 3 {
		t.Fatalf("int8 round %v want 3", got)
	}
}
