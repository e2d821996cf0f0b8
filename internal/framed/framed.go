// Package framed is the one framing layer under every binary artefact
// the tools write: engine plans (EDGERT02), timing caches (EDGETC01),
// rtexec's framework-model container (EDGEMDL1) and the framework
// importers' weight payload. A format is a
// magic tag followed by a straight-line list of the primitives here —
// little-endian u32, two's-complement little-endian i64, IEEE-754
// float64 bits, u32-length-prefixed bytes, raw little-endian float32
// runs — so each codec states its
// fields, its limits and its semantic checks, and nothing else.
//
// Both ends carry a sticky error: after the first failure every call is
// a no-op returning a zero value, and the codec checks once per record
// (Reader.Err) or once at the end (Writer.Flush).
//
// The Reader treats its input as hostile. No allocation is ever sized
// by a field it has not validated: counts and lengths are checked
// against a caller-supplied limit before use, and a variable-length read
// larger than one chunk is assembled from chunk-sized pieces that are
// each allocated only after the previous one was filled from the stream.
// Beyond the data it hands back, a Reader over a stream of L bytes
// therefore allocates at most L plus one chunk, whatever the length
// fields claim.
package framed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"edgeinfer/internal/atomicfile"
)

// chunk is the largest allocation a Reader makes on the word of a
// length field alone. A multiple of 4, so float32 runs never straddle
// two pieces.
const chunk = 256 << 10

// Writer emits framing primitives to a buffered stream.
type Writer struct {
	bw      *bufio.Writer
	err     error
	scratch [1024]byte
}

// NewWriter returns a Writer over w. Call Flush when the artefact is
// complete.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

func (w *Writer) write(p []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
}

func (w *Writer) writeString(s string) {
	if w.err == nil {
		_, w.err = w.bw.WriteString(s)
	}
}

// Magic writes a format tag verbatim (no length prefix).
func (w *Writer) Magic(tag string) { w.writeString(tag) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:], v)
	w.write(w.scratch[:4])
}

// I64 writes a little-endian two's-complement int64.
func (w *Writer) I64(v int64) {
	binary.LittleEndian.PutUint64(w.scratch[:], uint64(v))
	w.write(w.scratch[:8])
}

// F64 writes a float64 as its little-endian IEEE-754 bits.
func (w *Writer) F64(v float64) {
	binary.LittleEndian.PutUint64(w.scratch[:], math.Float64bits(v))
	w.write(w.scratch[:8])
}

// Bytes writes a u32 length followed by the bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.write(b)
}

// String is Bytes for a string, without the conversion copy.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.writeString(s)
}

// Float32s writes the values as raw little-endian float32, with no
// length prefix: the element count is the codec's to state (a weight
// record's shape).
func (w *Writer) Float32s(v []float32) {
	for len(v) > 0 && w.err == nil {
		n := min(len(v), len(w.scratch)/4)
		for i, f := range v[:n] {
			binary.LittleEndian.PutUint32(w.scratch[4*i:], math.Float32bits(f))
		}
		w.write(w.scratch[:4*n])
		v = v[n:]
	}
}

// Flush writes out buffered data and returns the first error any call
// on the Writer met.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Reader decodes framing primitives from an untrusted stream.
type Reader struct {
	br      *bufio.Reader
	off     int64 // bytes consumed, for error messages
	err     error
	scratch [8]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

// Err returns the first error any call on the Reader met.
func (r *Reader) Err() error { return r.err }

// full fills p from the stream; a short read becomes the sticky error.
func (r *Reader) full(p []byte) bool {
	if r.err != nil {
		return false
	}
	n, err := io.ReadFull(r.br, p)
	r.off += int64(n)
	if err != nil {
		r.err = fmt.Errorf("truncated at byte %d: %w", r.off, err)
		return false
	}
	return true
}

// Magic consumes a format tag and fails unless it matches.
func (r *Reader) Magic(tag string) {
	got := make([]byte, len(tag))
	if r.full(got) && string(got) != tag {
		r.err = fmt.Errorf("bad magic %q, want %q", got, tag)
	}
}

// U32 reads a little-endian uint32. A value that sizes an allocation
// must go through Count instead.
func (r *Reader) U32() uint32 {
	if !r.full(r.scratch[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.scratch[:])
}

// I64 reads a little-endian two's-complement int64. Any value decodes;
// bounding it is the codec's semantic check.
func (r *Reader) I64() int64 {
	if !r.full(r.scratch[:8]) {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(r.scratch[:]))
}

// F64 reads a float64 from its little-endian IEEE-754 bits. Any bit
// pattern decodes; rejecting NaN, infinities or out-of-range values is
// the codec's semantic check.
func (r *Reader) F64() float64 {
	if !r.full(r.scratch[:8]) {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.scratch[:]))
}

// limited reads a u32 that sizes something and fails — in the codec's
// own words for the field, and naming the limit — when it exceeds limit.
func (r *Reader) limited(format, what string, limit int) int {
	n := r.U32()
	if r.err == nil && int64(n) > int64(limit) {
		r.err = fmt.Errorf(format, what, n, limit)
		return 0
	}
	return int(n)
}

// Count reads a u32 count, bounded by limit.
func (r *Reader) Count(what string, limit int) int {
	return r.limited("%s %d exceeds limit %d", what, limit)
}

// Bytes reads a u32 length, bounded by limit, then that many bytes.
func (r *Reader) Bytes(what string, limit int) []byte {
	n := r.limited("%s length %d exceeds limit %d", what, limit)
	if n <= chunk {
		return r.piece(n)
	}
	return bytes.Join(r.pieces(int64(n)), nil)
}

// Float32s reads n raw little-endian float32 values. n comes from the
// codec's own validated fields (a bounded shape) but is still only a
// claim about the stream: the result is allocated once every byte of it
// has arrived.
func (r *Reader) Float32s(n int64) []float32 {
	raw := r.pieces(4 * n)
	if r.err != nil {
		return nil
	}
	out := make([]float32, 0, n)
	for _, p := range raw {
		for ; len(p) >= 4; p = p[4:] {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(p)))
		}
	}
	return out
}

// piece reads n <= chunk bytes into a fresh slice, nil on failure.
func (r *Reader) piece(n int) []byte {
	if r.err != nil {
		return nil
	}
	p := make([]byte, n)
	if !r.full(p) {
		return nil
	}
	return p
}

// pieces reads n bytes as chunk-sized pieces, allocating each only once
// the one before it was filled: a hostile n over a short stream fails
// having reserved the bytes actually present plus one chunk, not n.
func (r *Reader) pieces(n int64) [][]byte {
	var out [][]byte
	for n > 0 {
		p := r.piece(int(min(n, chunk)))
		if p == nil {
			return nil
		}
		out = append(out, p)
		n -= int64(len(p))
	}
	return out
}

// SaveFile serializes an artefact to memory and publishes it with an
// atomic rename, so an interrupted save never leaves a truncated file
// for a hardened loader to reject.
func SaveFile(path string, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadFile opens path and decodes it with load.
func LoadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return load(f)
}
