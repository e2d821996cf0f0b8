package framed

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// sample writes one of every primitive, with a byte run and a float run
// that each span several chunks.
func sample(t *testing.T) (stream []byte, blob []byte, floats []float32) {
	t.Helper()
	blob = make([]byte, 2*chunk+123)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	floats = make([]float32, chunk/2+5) // 2 chunks and a bit
	for i := range floats {
		floats[i] = float32(i) * 0.25
	}
	floats[3] = float32(math.Inf(-1))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TESTMG01")
	w.U32(0xdeadbeef)
	w.F64(-1.5e-300)
	w.String("key")
	w.Bytes(nil)
	w.Bytes(blob)
	w.Float32s(floats)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), blob, floats
}

func readSample(r *Reader, nfloats int64) (u32 uint32, f64 float64, key, empty, blob []byte, floats []float32) {
	r.Magic("TESTMG01")
	u32, f64 = r.U32(), r.F64()
	key = r.Bytes("key", 16)
	empty = r.Bytes("empty", 16)
	blob = r.Bytes("blob", 4*chunk)
	floats = r.Float32s(nfloats)
	return
}

func TestRoundTrip(t *testing.T) {
	stream, blob, floats := sample(t)
	r := NewReader(bytes.NewReader(stream))
	u32, f64, key, empty, gotBlob, gotFloats := readSample(r, int64(len(floats)))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if u32 != 0xdeadbeef || f64 != -1.5e-300 || string(key) != "key" || len(empty) != 0 {
		t.Fatalf("scalars: %x %v %q %v", u32, f64, key, empty)
	}
	if !bytes.Equal(gotBlob, blob) {
		t.Fatal("multi-chunk bytes differ")
	}
	if len(gotFloats) != len(floats) {
		t.Fatalf("%d floats, want %d", len(gotFloats), len(floats))
	}
	for i := range floats {
		if math.Float32bits(gotFloats[i]) != math.Float32bits(floats[i]) {
			t.Fatalf("float %d: %v, want %v", i, gotFloats[i], floats[i])
		}
	}
	// Layout is little-endian with u32 length prefixes.
	want := []byte("TESTMG01\xef\xbe\xad\xde")
	if !bytes.HasPrefix(stream, want) {
		t.Fatalf("stream starts % x", stream[:len(want)])
	}
	if got := stream[8+4+8:][:7]; !bytes.Equal(got, []byte("\x03\x00\x00\x00key")) {
		t.Fatalf("string framing % x", got)
	}
}

// Every strict prefix of a valid stream fails, with the error sticking:
// later reads return zero values and the first error is kept.
func TestTruncationIsSticky(t *testing.T) {
	stream, _, floats := sample(t)
	cuts := []int{0, 3, 8, 11, 12, 19, 20, 24, 27, 31, 35, 35 + chunk, len(stream) - 4*len(floats) + 2, len(stream) - 1}
	for _, cut := range cuts {
		r := NewReader(bytes.NewReader(stream[:cut]))
		readSample(r, int64(len(floats)))
		err := r.Err()
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: %v does not wrap an EOF", cut, err)
		}
		if r.U32() != 0 || r.Bytes("more", 8) != nil || r.Err() != err {
			t.Fatalf("truncation at %d: error did not stick", cut)
		}
	}
}

func TestBadMagicAndLimits(t *testing.T) {
	r := NewReader(strings.NewReader("WRONGMAGIC"))
	if r.Magic("TESTMG01"); r.Err() == nil || !strings.Contains(r.Err().Error(), "bad magic") {
		t.Fatalf("bad magic: %v", r.Err())
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(17)
	w.U32(16)
	w.Bytes(make([]byte, 17))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r = NewReader(bytes.NewReader(buf.Bytes()))
	if n := r.Count("entries", 16); n != 0 || r.Err() == nil ||
		!strings.Contains(r.Err().Error(), "entries 17 exceeds limit 16") {
		t.Fatalf("over-limit count: n=%d err=%v", n, r.Err())
	}
	r = NewReader(bytes.NewReader(buf.Bytes()[4:]))
	if n := r.Count("entries", 16); n != 16 || r.Err() != nil {
		t.Fatalf("at-limit count: n=%d err=%v", n, r.Err())
	}
	if b := r.Bytes("key", 16); b != nil || r.Err() == nil ||
		!strings.Contains(r.Err().Error(), "key length 17 exceeds limit 16") {
		t.Fatalf("over-limit bytes: %v err=%v", b, r.Err())
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

func TestWriterErrorIsSticky(t *testing.T) {
	boom := errors.New("disk full")
	w := NewWriter(failingWriter{boom})
	w.Bytes(make([]byte, 1<<16)) // larger than the buffer: hits the sink
	w.U32(1)
	w.Float32s(make([]float32, 10))
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want the sink's error", err)
	}
}

// TestAllocationFollowsStream is the bounded-allocation property: over a
// stream of L bytes, whatever the length fields claim, a Reader
// allocates at most L plus one chunk beyond the data it hands back
// (which cannot itself exceed L). Streams are random bytes, so the u32
// length prefixes Bytes meets are hostile by construction; Float32s is
// driven with claims up to 2^40 elements.
func TestAllocationFollowsStream(t *testing.T) {
	// Size-class rounding, the bufio buffer and slice headers: a fixed
	// allowance far below a chunk.
	const slack = 64 << 10
	rng := rand.New(rand.NewSource(20))
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	for i := 0; i < 200; i++ {
		stream := make([]byte, rng.Intn(3*chunk))
		rng.Read(stream)
		ops := rng.Perm(6)
		claim := int64(1) << uint(rng.Intn(41))
		var returned int64
		got := allocated(func() {
			r := NewReader(bytes.NewReader(stream))
			for _, op := range ops {
				switch op {
				case 0:
					returned += int64(len(r.Bytes("hostile", math.MaxInt32)))
				case 1:
					returned += 4 * int64(len(r.Float32s(claim)))
				case 2:
					returned += 4 * int64(len(r.Float32s(int64(rng.Intn(chunk)))))
				case 3:
					r.Count("hostile", math.MaxInt32)
				case 4:
					returned += int64(len(r.Bytes("small", 64)))
				case 5:
					r.F64()
				}
			}
		})
		if limit := int64(len(stream)) + chunk + slack; got-returned > limit {
			t.Fatalf("case %d: stream of %d bytes, ops %v, float claim %d: allocated %d beyond the %d returned, limit %d",
				i, len(stream), ops, claim, got-returned, returned, limit)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artefact.bin")
	save := func(w io.Writer) error {
		fw := NewWriter(w)
		fw.Magic("TESTMG01")
		fw.U32(42)
		return fw.Flush()
	}
	load := func(r io.Reader) (uint32, error) {
		fr := NewReader(r)
		fr.Magic("TESTMG01")
		return fr.U32(), fr.Err()
	}
	if err := SaveFile(path, save); err != nil {
		t.Fatal(err)
	}
	if v, err := LoadFile(path, load); err != nil || v != 42 {
		t.Fatalf("LoadFile = %d, %v", v, err)
	}
	if _, err := LoadFile(path+".missing", load); err == nil {
		t.Fatal("missing file loaded")
	}
	boom := errors.New("refused")
	if err := SaveFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("SaveFile = %v, want the serializer's error", err)
	}
	if v, err := LoadFile(path, load); err != nil || v != 42 {
		t.Fatalf("a refused save damaged the published file: %d, %v", v, err)
	}
}
