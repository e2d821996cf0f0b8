package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// --- the differential: scanRequest against encoding/json ---

// oracleDecode is the decode the scanner must agree with: the stream
// decoder the handler used before the scanner and still falls back to.
func oracleDecode(b []byte) (inferRequest, error) {
	var req inferRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

// sameRequest compares two decoded bodies field for field, floats by
// their bits and nil-ness included (decodeInput branches on Data != nil).
func sameRequest(a, b inferRequest) error {
	switch {
	case (a.Input == nil) != (b.Input == nil):
		return fmt.Errorf("input presence %v vs %v", a.Input != nil, b.Input != nil)
	case a.Input != nil && *a.Input != *b.Input:
		return fmt.Errorf("input %d vs %d", *a.Input, *b.Input)
	case a.Shape != b.Shape:
		return fmt.Errorf("shape %v vs %v", a.Shape, b.Shape)
	case (a.Data == nil) != (b.Data == nil):
		return fmt.Errorf("data presence %v vs %v", a.Data != nil, b.Data != nil)
	case len(a.Data) != len(b.Data):
		return fmt.Errorf("data length %d vs %d", len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if x, y := math.Float32bits(a.Data[i]), math.Float32bits(b.Data[i]); x != y {
			return fmt.Errorf("data[%d] bits %08x vs %08x", i, x, y)
		}
	}
	return nil
}

// checkScan holds the property on one body: the scanner declines, or
// encoding/json accepts the same bytes and decodes them to the same
// value. It reports whether the scanner accepted.
func checkScan(t *testing.T, b []byte, want int) bool {
	t.Helper()
	got, ok := scanRequest(b, want)
	if !ok {
		return false
	}
	ref, err := oracleDecode(b)
	if err != nil {
		t.Errorf("scanner accepted %q, encoding/json rejects it: %v", b, err)
	} else if err := sameRequest(got, ref); err != nil {
		t.Errorf("scanner and encoding/json disagree on %q: %v", b, err)
	}
	return true
}

// benchBody renders a body exactly as the benchmark's generator does.
func benchBody(shape [4]int, data []float32) []byte {
	b := []byte(fmt.Sprintf(`{"shape":[%d,%d,%d,%d],"data":[`, shape[0], shape[1], shape[2], shape[3]))
	for i, v := range data {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// randomFloats draws n finite float32 values uniformly over bit patterns.
func randomFloats(seed string, n int) []float32 {
	src := fixrand.NewKeyed(seed)
	out := make([]float32, 0, n)
	for len(out) < n {
		if v := math.Float32frombits(uint32(src.Uint64())); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			out = append(out, v)
		}
	}
	return out
}

var scanShape = [4]int{1, 1, 2, 2}

const scanWant = 4

// plainBodies are bodies in the plain form: the scanner must take them,
// not merely agree with encoding/json when it happens to.
func plainBodies() [][]byte {
	bodies := [][]byte{
		[]byte(`{"input":7}`),
		[]byte(`{"input":-0}`),
		[]byte(`{"input":-3}`),
		[]byte(`{"data":[]}`),
		[]byte(`{"shape":[1,1,2,2],"data":[]}`),
		[]byte(`{"shape":[-1,0,2,2],"data":[1]}`),
		// The generator's three spellings.
		[]byte(`{"shape":[1,1,2,2],"data":[0.123,1.2345679e-05,1e+06,-7]}`),
		// Every float32 boundary: signed zero, the smallest subnormal, the
		// largest finite value and what rounds to it, exponent forms.
		[]byte(`{"data":[0,-0,0.0,-0.0e-0]}`),
		[]byte(`{"data":[1e-45,1.401298464324817e-45,7e-46,-1e-45]}`),
		[]byte(`{"data":[3.4028235e+38,3.4028235e38,3.40282346e38,-3.4028234663852886e38]}`),
		[]byte(`{"data":[1.17549435e-38,1.1754942e-38,1E5,1e-400]}`),
		// Halfway cases around 2^24, where float32 runs out of integers.
		[]byte(`{"data":[16777216,16777217,16777218,16777219]}`),
		[]byte(`{"data":[16777217.000000001,16777216.999999999,16777219.0,-16777217]}`),
		// Like the stream decoder, nothing after the closing brace counts.
		[]byte(`{"input":1}}`),
		[]byte(`{"input":1} {"input":2}`),
		[]byte(`{"data":[1,2,3,4],"shape":[1,1,2,2]}garbage`),
	}
	// 9-digit and shortest round-trips of random bit patterns.
	vals := randomFloats("netserve/scan", 256)
	for i := 0; i+scanWant <= len(vals); i += scanWant {
		bodies = append(bodies, benchBody(scanShape, vals[i:i+scanWant]))
		b := []byte(`{"data":[`)
		for j, v := range vals[i : i+scanWant] {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(v), 'e', 8, 32)
		}
		bodies = append(bodies, append(b, `]}`...))
	}
	// Keys in all six orders.
	members := []string{`"input":3`, `"shape":[1,1,2,2]`, `"data":[1,2.5,-3e2,4]`}
	for _, p := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		bodies = append(bodies, []byte("{"+members[p[0]]+","+members[p[1]]+","+members[p[2]]+"}"))
	}
	// Whitespace in every legal position, one at a time and all at once.
	toks := strings.Split(`{ "input" : 3 , "shape" : [ 1 , 1 , 2 , 2 ] , "data" : [ -1.5e+3 , 2 ] }`, " ")
	for gap := 0; gap <= len(toks); gap++ {
		var one, all []byte
		for i, tok := range toks {
			if i == gap {
				one = append(one, " \t\r\n"...)
			}
			one = append(one, tok...)
			all = append(append(all, " \n\t\r"...), tok...)
		}
		if gap == len(toks) {
			one = append(one, " \t\r\n"...)
		}
		bodies = append(bodies, one, all)
	}
	return bodies
}

// hostileBodies are bodies outside the plain form. Whatever the scanner
// does with them must agree with encoding/json; most it must decline.
func hostileBodies() [][]byte {
	var bodies [][]byte
	for _, num := range []string{
		"01", "-01", "00", "1.", ".5", "-.5", "+1", "1e", "1e+", "1E-", "-", "--1", "1-", "NaN", "nan",
		"Infinity", "-Inf", "0x10", "0x1p-2", "1_000", "1e400", "-1e400", "1e39", "3.4028236e38",
		"1e-400", strings.Repeat("1", 40), "0." + strings.Repeat("3", 40), "1" + strings.Repeat("0", 33),
		"1e0000000000000000000000000000000001", "340282346638528859811704183484516925440", "3.4028235677973366e38", "null", `"1"`, "[1]", "{}", "true", "1 2", "",
	} {
		bodies = append(bodies,
			[]byte(`{"data":[`+num+`]}`),
			[]byte(`{"data":[1,`+num+`]}`),
			[]byte(`{"input":`+num+`}`),
			[]byte(`{"shape":[1,1,2,`+num+`]}`),
		)
	}
	for _, s := range []string{
		``, ` `, `{}`, ` { } `, `null`, `[]`, `7`, `"input"`, `{`, `{,}`, `{"input"}`, `{"input":}`, `{"input":1,}`, `{,"input":1}`,
		`{"input":1 "data":[]}`, `{"input":1,,"data":[]}`, `{"input"shape":[1,1,2,2]}`, `{"input:1}`, `{input:1}`,
		`{"Input":1}`, `{"INPUT":1}`, `{"inp\u0075t":1}`, `{"in\put":1}`, `{"input ":1}`, `{"inputs":1}`, `{"other":1}`,
		`{"input":1,"input":2}`, `{"data":[1],"data":[2]}`, `{"shape":[1,1,2,2],"shape":[2,2,1,1]}`,
		`{"input":1,"Input":2}`, `{"data":[1,2],"DATA":null}`,
		`{"input":null}`, `{"data":null}`, `{"shape":null}`, `{"input":1.0}`, `{"input":1e2}`,
		`{"input":9223372036854775807}`, `{"input":9223372036854775808}`, `{"input":-9223372036854775809}`,
		`{"shape":[1,1,2]}`, `{"shape":[1,1,2,2,5]}`, `{"shape":[]}`, `{"shape":[1,1,2,2.0]}`, `{"shape":[1,1,2,2,]}`,
		`{"shape":[1,1,2,99999999999999999999]}`, `{"shape":{"0":1}}`, `{"shape":[[1,1,2,2]]}`,
		`{"data":[1,2,3,4,5]}`, `{"data":[1,2,3,4,]}`, `{"data":[,1]}`, `{"data":[1 2]}`, `{"data":[1,2}`, `{"data":1}`,
		`{"data":[1,2,3,4],"shape":[1,1,2,2]`, `{"data":[1,2,3,4]],"shape":[1,1,2,2]}`,
		"{\"input\":\v1}", "{\"input\":\u00a01}", "\ufeff{\"input\":1}", "{\"input\":1\x00}", "{\"data\":[1\x00]}",
	} {
		bodies = append(bodies, []byte(s))
	}
	// A valid body cut at every byte.
	whole := []byte(` {"shape":[1,1,2,2], "data":[-0.5,1e+06,1.2345679e-05,16777217], "input":12}`)
	for n := 0; n < len(whole); n++ {
		bodies = append(bodies, whole[:n])
	}
	return bodies
}

func TestScanMatchesEncodingJSON(t *testing.T) {
	for _, b := range plainBodies() {
		if !checkScan(t, b, scanWant) {
			t.Errorf("scanner declined the plain form %q", b)
		}
	}
	for _, b := range hostileBodies() {
		checkScan(t, b, scanWant)
	}
	// What must be declined, not merely agreed on: each has a reading
	// under encoding/json that the scanner does not reproduce.
	for _, s := range []string{
		`{"Input":1}`, `{"inp\u0075t":1}`, `{"input":1,"input":2}`, `{"data":null}`, `{"input":null}`,
		`{"shape":[1,1,2,2,5]}`, `{"shape":[1,1,2]}`, `{"data":[1,2,3,4,5]}`, `{"other":1,"input":2}`,
		`{"data":[1e400]}`, `{"data":[` + strings.Repeat("1", 40) + `]}`, `{"input":1.0}`,
	} {
		if _, ok := scanRequest([]byte(s), scanWant); ok {
			t.Errorf("scanner accepted %q, which is not the plain form", s)
		}
	}
	// The benchmark's own body, whole: 3072 floats into one allocation
	// sized by the model, not by the body.
	shape := [4]int{1, 3, 32, 32}
	big := benchBody(shape, randomFloats("netserve/scan/big", 3072))
	if !checkScan(t, big, 3072) {
		t.Fatal("scanner declined the benchmark's raw body")
	}
	if got, _ := scanRequest(big, 3072); cap(got.Data) != 3072 {
		t.Errorf("data capacity %d, want the model's 3072", cap(got.Data))
	}
	// A hollow body cannot make the scanner allocate the model's input.
	if got, ok := scanRequest([]byte(`{"data":[1]}`), 1<<30); !ok || cap(got.Data) > 2 {
		t.Errorf("12-byte body: accepted=%v, data capacity %d", ok, cap(got.Data))
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, b := range plainBodies() {
		f.Add(b, uint8(scanWant))
	}
	for _, b := range hostileBodies() {
		f.Add(b, uint8(scanWant))
	}
	f.Fuzz(func(t *testing.T, b []byte, want uint8) {
		checkScan(t, b, int(want))
	})
}

// --- the float converter against strconv ---

// floatMismatch holds float to strconv on one input: it accepts exactly
// when number's grammar takes a token that strconv.ParseFloat(tok, 32)
// accepts, then with equal Float32bits and stopping where number stops.
// It returns nil when they agree.
func floatMismatch(b []byte) error {
	s, g := bodyScanner{b: b}, bodyScanner{b: b}
	got, ok := s.float()
	tok, _ := g.number()
	if tok == nil {
		if ok {
			return fmt.Errorf("%q: float accepted %v, the grammar rejects it", b, got)
		}
		return nil
	}
	want, err := strconv.ParseFloat(string(tok), 32)
	switch {
	case ok != (err == nil):
		return fmt.Errorf("%q: float accepted=%v, strconv error %v", b, ok, err)
	case ok && math.Float32bits(got) != math.Float32bits(float32(want)):
		return fmt.Errorf("%q: float %v (%#08x), strconv %v (%#08x)", b, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
	case ok && s.i != g.i:
		return fmt.Errorf("%q: float stopped at %d, number at %d", b, s.i, g.i)
	}
	return nil
}

// bumpLast adds delta (±1) to the last significand digit of a positive
// decimal token, carrying or borrowing through the digits: the
// neighbour one unit in the last place away, with as many digits.
func bumpLast(tok string, delta int) string {
	b := []byte(tok)
	end := bytes.IndexAny(b, "eE")
	if end < 0 {
		end = len(b)
	}
	for i := end - 1; i >= 0; i-- {
		if b[i] == '.' {
			continue
		}
		d := int(b[i]-'0') + delta
		if 0 <= d && d <= 9 {
			b[i] = byte('0' + d)
			return string(b)
		}
		b[i] = byte('0' + (d+10)%10) // carry or borrow on
	}
	return "1" + string(b) // 9…9 + 1; a borrow past the first digit is never asked for
}

// halfwayTokens renders the float32 halfway point above a — exact in a
// float64 — at each of the given significant-digit counts, with its two
// neighbours one unit in the last place away, and once in float64's
// shortest form, which reads back exactly onto the halfway point.
func halfwayTokens(a float32, digits []int) []string {
	up := math.Nextafter32(a, float32(math.Inf(1)))
	h := (float64(a) + float64(up)) / 2
	toks := []string{strconv.FormatFloat(h, 'g', -1, 64)}
	for _, n := range digits {
		at := strconv.FormatFloat(h, 'e', n-1, 64)
		toks = append(toks, at, bumpLast(at, 1))
		if strings.Trim(at[:strings.IndexByte(at, 'e')], "0.") != "1" {
			toks = append(toks, bumpLast(at, -1))
		}
	}
	return toks
}

var halfwayDigits = []int{9, 12, 15, 16, 17, 20, 25}

// TestScanFloatMatchesStrconv holds the one-pass converter to strconv on
// every kind of token its exact path could get wrong: float32 values in
// their shortest and 9-digit renderings, tokens at and beside float32
// halfway points (where a double rounding shows), significands just
// under and over the exact path's 15 digits and exponents at its ±22
// edges, zeros, subnormals and overflow.
func TestScanFloatMatchesStrconv(t *testing.T) {
	patterns, halfways := 1<<20, 1<<13
	if raceEnabled { // one goroutine: nothing for the detector to see
		patterns, halfways = 1<<16, 1<<9
	}
	var toks []string
	src := fixrand.NewKeyed("netserve/scanfloat")
	// A float32 of every magnitude, and one whose halfway points are
	// short decimals (binary exponents 2^-8 .. 2^52).
	anyFloat := func() float32 {
		for {
			if v := math.Float32frombits(uint32(src.Uint64())); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				return v
			}
		}
	}
	shortHalf := func() float32 {
		return math.Float32frombits(uint32(119+src.Intn(61))<<23 | uint32(src.Uint64())&(1<<23-1))
	}
	for i := 0; i < halfways; i++ {
		for _, a := range []float32{float32(math.Abs(float64(anyFloat()))), shortHalf()} {
			if a < math.MaxFloat32 {
				toks = append(toks, halfwayTokens(a, halfwayDigits)...)
			}
		}
	}
	for _, n := range []int{15, 16, 19, 20} {
		for _, e := range []int{-23, -22, -21, -1, 0, 1, 21, 22, 23} {
			for i := 0; i < 256; i++ {
				d := []byte(strconv.FormatUint(src.Uint64()%9+1, 10))
				for len(d) < n {
					d = append(d, byte('0'+src.Intn(10)))
				}
				if i%8 == 0 { // trailing zeros: fewer significant digits
					for j := n - 1 - src.Intn(n-1); j < n; j++ {
						d[j] = '0'
					}
				}
				// m·10^e as an integer with an exponent, and with the point
				// after the first digit.
				toks = append(toks,
					string(d)+"e"+strconv.Itoa(e),
					string(d[:1])+"."+string(d[1:])+"E"+strconv.Itoa(e+n-1))
			}
		}
	}
	toks = append(toks,
		"0", "-0", "0.0", "-0.0e5", "0e999", "-0E-999", "0.00000000000000000000000000000",
		"1."+strings.Repeat("0", 30), // 32 bytes; 33 with its sign, over the cap
		"1e-45", "1.4e-45", "7e-46", "7.1e-46", "1e-40", "-1.1754942e-38", "1.17549435e-38",
		"3.4028235e38", "3.4028236e38", "-3.4028236e38", "1e39", "1e38", "3.4028235677973366e38", "3.4028235677973367e38",
		"16777217", "16777216.5", "16777217.000000001", "0.1", "1", "-1", "9007199254740993", "999999999999999e22",
		"1e-22", "1e22", "1e23", "1e-23", "1e18446744073709551617", "0.5E+18446744073709551617", "01", "-", "1.", ".5", "1e", "1e+", "+1", "-a", "1.e5", "00",
	)
	var short, e8 []byte
	for i := 0; i < patterns; i++ {
		v := float64(anyFloat())
		short = strconv.AppendFloat(short[:0], v, 'g', -1, 32)
		e8 = strconv.AppendFloat(e8[:0], v, 'e', 8, 32)
		for _, tok := range [][]byte{short, e8} {
			if err := floatMismatch(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tok := range toks {
		for _, b := range []string{tok, "-" + tok + "]"} {
			if err := floatMismatch([]byte(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func FuzzScanFloat(f *testing.F) {
	// The last two have halfway tokens that a converter gets wrong
	// without the halfway guard, and with its window widened to 10^23.
	for _, a := range []float32{1, 16777216, 0x1p-20, 1.5e-10, 3.3895314e38, 0.0067764977, 2.0568617e+37} {
		for _, tok := range halfwayTokens(a, halfwayDigits) {
			f.Add([]byte(tok))
		}
	}
	for _, tok := range []string{"-0", " 1.25e-3,", "1e-45", "3.4028236e38", "999999999999999e22", "1.e5", "01"} {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := floatMismatch(b); err != nil {
			t.Fatal(err)
		}
	})
}

// --- the handler, end to end ---

// probeBackend answers every batch at once with a fixed output and keeps
// the last tensor it was handed, so a test sees what the front door
// decoded and nothing behind it.
type probeBackend struct {
	shape      [4]int
	out        *tensor.Tensor
	latencySec float64
	last       atomic.Pointer[tensor.Tensor]
}

func (b *probeBackend) ServeBatch(_ *rtctx.Request, xs []*tensor.Tensor, _ int) (*BatchAnswer, error) {
	ans := &BatchAnswer{Results: make([]Answer, len(xs)), LatencySec: b.latencySec}
	for i, x := range xs {
		b.last.Store(x)
		ans.Results[i] = Answer{Outputs: []*tensor.Tensor{b.out}, Tier: "probe"}
	}
	return ans, nil
}
func (b *probeBackend) Ready() (bool, string) { return true, "probe" }
func (b *probeBackend) InputShape() [4]int    { return b.shape }

// probeServer serves model "m" from a probeBackend, one request a batch
// so no window is ever waited on.
func probeServer(tb testing.TB, shape [4]int, maxBody int64) (*Server, *probeBackend) {
	tb.Helper()
	be := &probeBackend{shape: shape, out: tensor.NewVec(4), latencySec: 1e-4}
	s, err := New(Config{Models: []ModelConfig{{Name: "m", Backend: be}}, MaxBatch: 1, MaxBodyBytes: maxBody})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			tb.Error(err)
		}
	})
	return s, be
}

func inferRequestFor(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/models/m/infer", bytes.NewReader(body))
}

// referenceAnswer is the front door as it stood before the scanner — the
// stream decoder straight off the size-limited body — up to the point of
// admission: the tensor it would have queued, or the error it answered.
func referenceAnswer(s *Server, r *http.Request) (*tensor.Tensor, *httptest.ResponseRecorder) {
	w := httptest.NewRecorder()
	q := s.queues["m"]
	if _, err := parsePriority(r); err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return nil, w
	}
	if _, err := s.parseDeadline(r); err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return nil, w
	}
	if _, err := parseTenant(r); err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return nil, w
	}
	var body inferRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "bad-request",
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return nil, w
		}
		writeErr(w, http.StatusBadRequest, "bad-request", "malformed JSON body: "+err.Error())
		return nil, w
	}
	x, reason := s.decodeInput(&body, q.be.InputShape())
	if reason != "" {
		writeErr(w, http.StatusBadRequest, "bad-request", reason)
		return nil, w
	}
	return x, w
}

func FuzzHandleInfer(f *testing.F) {
	const maxBody = 256
	s, be := probeServer(f, scanShape, maxBody)
	handler := s.Handler()

	f.Add("", "", "", []byte(`{"input":7}`))
	f.Add("250", "high", "tenant-a", []byte(`{"shape":[1,1,2,2],"data":[0.123,1.2345679e-05,1e+06,-7]}`))
	f.Add("9223372036854775807", "low", strings.Repeat("t", maxTenantLen+1), []byte(`{"data":[1,2,3,4],"shape":[1,1,2,2]}x`))
	f.Add("0", "urgent", "", []byte(`{"data":[1,2,3],"shape":[1,1,2,2]}`))
	f.Add("5000", "", "", []byte(`{"data":[`+strings.Repeat("0,", maxBody)+`0]}`))
	f.Add("5000", "", "", []byte(`{"input":1}`+strings.Repeat(" ", maxBody)))
	f.Add("5000", "", "", []byte(`{"input":1,`+strings.Repeat(" ", maxBody)+`}`))
	for _, b := range hostileBodies() {
		f.Add("5000", "", "", b)
	}

	f.Fuzz(func(t *testing.T, deadline, priority, tenant string, body []byte) {
		build := func() *http.Request {
			r := inferRequestFor(body)
			for k, v := range map[string]string{"X-Deadline-Ms": deadline, "X-Priority": priority, "X-Tenant": tenant} {
				if v != "" {
					r.Header.Set(k, v)
				}
			}
			return r
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, build())

		switch rec.Code {
		case 200, 400, 404, 413, 500, 503, 504:
		default:
			t.Fatalf("status %d", rec.Code)
		}
		var obj map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
			t.Fatalf("status %d body %q is not one JSON object: %v", rec.Code, rec.Body.Bytes(), err)
		}

		wantX, ref := referenceAnswer(s, build())
		if wantX == nil {
			if rec.Code != ref.Code || !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
				t.Fatalf("answered %d %q, the stream decoder answers %d %q", rec.Code, rec.Body.Bytes(), ref.Code, ref.Body.Bytes())
			}
			return
		}
		// Accepted by the reference: a tight X-Deadline-Ms may still expire
		// in the queue, anything else is a 200 over the same tensor.
		if rec.Code == 504 {
			return
		}
		if rec.Code != 200 {
			t.Fatalf("answered %d %q, the stream decoder accepts the request", rec.Code, rec.Body.Bytes())
		}
		gotX := be.last.Load()
		if gotX.N != wantX.N || gotX.C != wantX.C || gotX.H != wantX.H || gotX.W != wantX.W {
			t.Fatalf("served a %dx%dx%dx%d tensor, want %dx%dx%dx%d", gotX.N, gotX.C, gotX.H, gotX.W, wantX.N, wantX.C, wantX.H, wantX.W)
		}
		if err := sameRequest(inferRequest{Data: gotX.Data}, inferRequest{Data: wantX.Data}); err != nil {
			t.Fatalf("served tensor differs from the stream decoder's: %v", err)
		}
	})
}

// A reply that cannot be encoded must not go out as the promised status
// over an empty body: it is a backend failure, answered and counted as one.
func TestUnencodableReplyIs500(t *testing.T) {
	s, be := probeServer(t, scanShape, 0)
	be.latencySec = math.NaN()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, inferRequestFor([]byte(`{"input":1}`)))
	var rep ErrReply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("status %d body %q: %v", rec.Code, rec.Body.Bytes(), err)
	}
	if rec.Code != 500 || rep.Reason != "backend" {
		t.Fatalf("NaN latency answered %d %+v, want 500 backend", rec.Code, rep)
	}
	if st := s.Stats().Models["m"]; st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1 (%+v)", st.Errors, st)
	}
}

// --- pool hygiene ---

func TestReadBodySizing(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 bytes
	small := make([]byte, 0, 64)
	for _, tc := range []struct {
		name string
		hint int64
	}{{"no Content-Length", 0}, {"short Content-Length", 11}, {"exact", int64(len(body)) + 1}, {"long", 4096}} {
		got, err := readBody(iotest.HalfReader(bytes.NewReader(body)), small, tc.hint)
		if err != io.EOF || !bytes.Equal(got, body) {
			t.Fatalf("%s: read %d bytes, err %v", tc.name, len(got), err)
		}
		if tc.hint > int64(len(body)) && int64(cap(got)) != tc.hint {
			t.Errorf("%s: capacity %d, want the hinted %d in one allocation", tc.name, cap(got), tc.hint)
		}
	}
	// A buffer that already fits is reused, not reallocated.
	big := make([]byte, 0, 4096)
	if got, _ := readBody(bytes.NewReader(body), big, int64(len(body))+1); &got[0] != &big[:1][0] {
		t.Error("a large enough pooled buffer was not reused")
	}
	// The read's own error comes back with what was read before it.
	boom := errors.New("boom")
	got, err := readBody(io.MultiReader(bytes.NewReader(body[:10]), iotest.ErrReader(boom)), small, 0)
	if err != boom || !bytes.Equal(got, body[:10]) {
		t.Fatalf("failed read returned %q, %v", got, err)
	}
}

// A body larger than maxPooledBody is served from a buffer of its own,
// and that buffer never reaches the pool.
func TestLargeBodyBufferIsNotPooled(t *testing.T) {
	shape := [4]int{1, 1, 128, 128}
	s, _ := probeServer(t, shape, 0)
	body := benchBody(shape, randomFloats("netserve/large", 128*128))
	if len(body) <= maxPooledBody {
		t.Fatalf("body is %d bytes, the test needs more than %d", len(body), maxPooledBody)
	}
	for i := 0; i < 4; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, inferRequestFor(body))
		if rec.Code != 200 {
			t.Fatalf("large body answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		// Drain what this goroutine can see of the pool: nothing in it may
		// have grown to the large body's size.
		var held []*[]byte
		for j := 0; j < 8; j++ {
			bp := bodyPool.Get().(*[]byte)
			if cap(*bp) > maxPooledBody {
				t.Fatalf("pool holds a %d-byte buffer, cap is %d", cap(*bp), maxPooledBody)
			}
			held = append(held, bp)
		}
		for _, bp := range held {
			bodyPool.Put(bp)
		}
	}
}

// --- the allocation pin and the package's own benchmark ---

// handlerCases are the benchmark's two request kinds, rendered as its
// generator renders them: an index body and the raw NCHW body of a
// benign image (templates under observation noise, like its raw corpus).
// allocs pins the allocations per request that are the handler's own;
// the reflective decode took 29 (index) and 50 (raw).
func handlerCases(s *Server) []handlerCase {
	img := s.inputs[0]
	return []handlerCase{
		{"index", []byte(`{"input":7}`), 21},
		{"raw", benchBody([4]int{img.N, img.C, img.H, img.W}, img.Data), 22},
	}
}

type handlerCase struct {
	name   string
	body   []byte
	allocs float64
}

func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates and sync.Pool drops at random under it; counts only hold without it")
	}
	s, _ := probeServer(t, [4]int{1, 3, 32, 32}, 0)
	handler := s.Handler()
	var nop http.Handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	for _, tc := range handlerCases(s) {
		// The harness's share: a recorder and a request, handed to a
		// handler that does nothing with them.
		floor := testing.AllocsPerRun(200, func() {
			nop.ServeHTTP(httptest.NewRecorder(), inferRequestFor(tc.body))
		})
		total := testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, inferRequestFor(tc.body))
			if rec.Code != 200 {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.Bytes())
			}
		})
		if own := total - floor; own > tc.allocs {
			t.Errorf("%s: %v allocations per request (%v with the harness's %v), pinned at %v", tc.name, own, total, floor, tc.allocs)
		} else {
			t.Logf("%s: %v allocations per request (%v with the harness's %v)", tc.name, own, total, floor)
		}
	}
}

func BenchmarkHandleInfer(b *testing.B) {
	s, _ := probeServer(b, [4]int{1, 3, 32, 32}, 0)
	handler := s.Handler()
	for _, tc := range handlerCases(s) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.body)))
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, inferRequestFor(tc.body))
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
