package netserve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// bodyPool recycles request-body buffers. They start small — an index
// body is a dozen bytes — and grow to what the traffic sends; one that
// grew past maxPooledBody is dropped, so a burst of MaxBodyBytes-sized
// bodies cannot pin a megabyte per handler. Nothing else is pooled: the
// request record and its input tensor can outlive the handler (batcher,
// a quorum replica still running after the vote, the client-gone path).
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledBody = 64 << 10

// decodeBody reads at most MaxBodyBytes of r.Body into a pooled buffer
// and decodes it. The plain form of the one request schema takes
// scanRequest's single pass. Whatever the scanner declines, and every
// body whose read failed, goes to encoding/json's stream decoder over
// the same bytes and then the body's own (sticky) end: every status
// code, error string and leniency stays encoding/json's — a syntax error
// ahead of the size limit is still a 400, a value the limit cuts off
// still a 413, bytes after the first value are still never looked at.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, shape [4]int) (inferRequest, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	bufp := bodyPool.Get().(*[]byte)
	buf, rerr := readBody(r.Body, *bufp, min(r.ContentLength, s.cfg.MaxBodyBytes)+1)
	if cap(buf) <= maxPooledBody {
		defer func() {
			*bufp = buf
			bodyPool.Put(bufp)
		}()
	}
	if rerr == io.EOF {
		if req, ok := scanRequest(buf, shape[0]*shape[1]*shape[2]*shape[3]); ok {
			return req, nil
		}
	}
	var req inferRequest
	err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), r.Body)).Decode(&req)
	return req, err
}

// readBody reads r to its end into buf[:0] — reallocated up front when
// sizeHint (from Content-Length) says it is too small, doubled whenever
// it fills anyway — and returns the bytes with the error that ended the
// read: io.EOF for a whole body.
func readBody(r io.Reader, buf []byte, sizeHint int64) ([]byte, error) {
	buf = buf[:0]
	if sizeHint > int64(cap(buf)) {
		buf = make([]byte, 0, sizeHint)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, max(2*cap(buf), 512)), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
}

// scanRequest is the fast path for the request schema in its plain form:
// an object whose keys are exactly "input" (integer), "shape" (four
// integers) and "data" (at most want numbers), each at most once, JSON
// whitespace anywhere. For anything it does not recognise byte for byte
// — another key spelling, an escape, a duplicate, null, a number strconv
// rejects — it reports false and the caller falls back to encoding/json.
// The contract between the two (TestScanMatchesEncodingJSON,
// FuzzDecodeRequest): when scanRequest accepts, its inferRequest equals
// encoding/json's on the same bytes, Float32bits for Float32bits, and it
// never accepts what encoding/json rejects. Numbers are checked against
// the JSON grammar here. Integers are converted by the strconv call
// encoding/json makes; a data number is checked and converted in one
// pass by float, exactly on its fast path and by that same strconv call
// otherwise (TestScanFloatMatchesStrconv, FuzzScanFloat). Like the stream
// decoder, nothing after the closing brace counts.
func scanRequest(b []byte, want int) (inferRequest, bool) {
	var req inferRequest
	s := bodyScanner{b: b}
	if !s.eat('{') {
		return req, false
	}
	seenShape := false
	for {
		ok := false
		switch {
		case !s.eat('"'):
		case s.lit(`input"`):
			if ok = req.Input == nil && s.eat(':'); ok {
				var n int
				n, ok = s.int()
				req.Input = &n
			}
		case s.lit(`shape"`):
			ok = !seenShape && s.eat(':') && s.ints(req.Shape[:])
			seenShape = true
		case s.lit(`data"`):
			if ok = req.Data == nil && s.eat(':'); ok {
				req.Data, ok = s.floats(want) // non-nil even when empty, as encoding/json's
			}
		}
		if !ok {
			return req, false
		}
		if !s.eat(',') {
			return req, s.eat('}')
		}
	}
}

// bodyScanner is a cursor over the request body; 0 <= i <= len(b).
type bodyScanner struct {
	b []byte
	i int
}

// is consumes c if it is the next byte.
func (s *bodyScanner) is(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// eat skips JSON whitespace, then consumes c if it is the next byte.
func (s *bodyScanner) eat(c byte) bool {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
	return s.is(c)
}

// lit consumes t if the body continues with exactly those bytes.
func (s *bodyScanner) lit(t string) bool {
	if rest := s.b[s.i:]; len(rest) >= len(t) && string(rest[:len(t)]) == t {
		s.i += len(t)
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (s *bodyScanner) digits() int {
	i := s.i
	for i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9' {
		i++
	}
	n := i - s.i
	s.i = i
	return n
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, after any whitespace,
// and reports whether it stopped after the integer part; a nil token is
// a decline. Tokens stop at 32 bytes (a float32 round-trips in 16) so
// string(tok) stays in the runtime's stack buffer for the conversion.
// float takes the same grammar and cap in its own pass.
func (s *bodyScanner) number() (tok []byte, integer bool) {
	neg := s.eat('-')
	start := s.i
	if n := s.digits(); n == 0 || n > 1 && s.b[start] == '0' {
		return nil, false
	}
	integer = true
	if s.is('.') {
		integer = false
		if s.digits() == 0 {
			return nil, false
		}
	}
	if s.is('e') || s.is('E') {
		integer = false
		_ = s.is('+') || s.is('-')
		if s.digits() == 0 {
			return nil, false
		}
	}
	if neg {
		start--
	}
	if s.i-start > 32 {
		return nil, false
	}
	return s.b[start:s.i], integer
}

// int consumes one integer that fits an int, which is what encoding/json
// requires of a number bound for an int field.
func (s *bodyScanner) int() (int, bool) {
	tok, integer := s.number()
	if !integer {
		return 0, false
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// ints consumes an array of exactly len(dst) integers.
func (s *bodyScanner) ints(dst []int) bool {
	ok := s.eat('[')
	for j := 0; ok && j < len(dst); j++ {
		if ok = j == 0 || s.eat(','); ok {
			dst[j], ok = s.int()
		}
	}
	return ok && s.eat(']')
}

// floats consumes an array of at most want numbers into one allocation.
// A number and its comma take two bytes at least, so what is left of the
// body bounds the count as well: the slice is never regrown and never
// larger than the model's input or twice the body.
func (s *bodyScanner) floats(want int) ([]float32, bool) {
	if !s.eat('[') {
		return nil, false
	}
	data := make([]float32, 0, min(want, (len(s.b)-s.i)/2+1))
	if s.eat(']') {
		return data, true
	}
	for {
		f, ok := s.float()
		if !ok || len(data) == want {
			return nil, false
		}
		data = append(data, f)
		if !s.eat(',') {
			return data, s.eat(']')
		}
	}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float consumes one token of number's grammar, under number's 32-byte
// cap, and returns what strconv.ParseFloat(tok, 32) returns for it; a
// token strconv rejects (one beyond float32's range) is a decline. The
// grammar check and the conversion are one pass: each digit is read
// once, into the significand m, with e the decimal exponent of m's last
// digit.
//
// The exact path takes a nonzero token whose m has at most 15
// significant digits (so m < 2^53) and whose e lies in [-22, 22]: m and
// 10^|e| are then exact float64s, and f = m·10^e costs one correctly
// rounded float64 operation. Narrowing f is the correctly rounded
// float32 unless f sits exactly on a float32 halfway point (its low 29
// significand bits are 1<<28): a halfway point is itself a float64 and
// rounding is monotone, so f cannot lie across one from the token's
// value. Such an f, and every token outside the window, goes to strconv
// on the same bytes. The window keeps f within [1e-22, 1e37), inside
// float32's normal range, so narrowing never underflows or overflows.
// Every token whose digits are all zero is ±0 exactly. The sign comes
// last, so -0 stays -0.
func (s *bodyScanner) float() (float32, bool) {
	neg := s.eat('-')
	b, i := s.b, s.i
	start := i
	if neg {
		start--
	}
	var m uint64  // wraps past 19 digits, and is used only up to 15
	nd, e := 0, 0 // significant digits in m; decimal exponent of its last
	j := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	switch {
	case i == j || b[j] == '0' && i > j+1:
		return 0, false
	case b[j] != '0':
		nd = i - j
	}
	if i < len(b) && b[i] == '.' {
		i++
		j = i
		if nd == 0 { // zeros ahead of the first nonzero digit do not count
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		k := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if i == j {
			return 0, false
		}
		nd += i - k
		e = j - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j = i
		x := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if x < 1e5 { // saturate: strconv gets anything this large
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, false
		}
		if eneg {
			x = -x
		}
		e += x
	}
	s.i = i
	if i-start > 32 {
		return 0, false
	}
	var f float64 // stays 0 when every digit is 0
	exact := nd == 0
	if nd > 0 && nd <= 15 && -22 <= e && e <= 22 {
		if f = float64(int64(m)); e < 0 {
			f /= pow10[-e]
		} else {
			f *= pow10[e]
		}
		exact = math.Float64bits(f)&(1<<29-1) != 1<<28
	}
	if !exact {
		f, err := strconv.ParseFloat(string(b[start:i]), 32)
		return float32(f), err == nil
	}
	if neg {
		f = -f
	}
	return float32(f), true
}
