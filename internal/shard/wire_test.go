package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/sssp"
)

// The reference decoders: encoding/json into the structs Client.View,
// Client.Eval and the eval handler decoded into before wire.go, through a
// json.Decoder as they did. They are what the scanner's "accepts a subset,
// with equal values" is measured against, and the shape of a parent-built
// peer in the mixed-version test.

func refView(body []byte, algo string) (ShardView, error) {
	var wire struct {
		Epoch    uint64 `json:"epoch"`
		Degraded bool   `json:"degraded"`
		Data     struct {
			Src    graph.NodeID `json:"src"`
			Dist   []int64      `json:"dist"`
			Labels []int64      `json:"labels"`
		} `json:"data"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil {
		return ShardView{}, err
	}
	sv := ShardView{Epoch: wire.Epoch, Degraded: wire.Degraded, Src: wire.Data.Src, Values: wire.Data.Dist}
	if algo == "cc" {
		sv.Values = wire.Data.Labels
	}
	return sv, nil
}

func refEvalRequest(body []byte) (req EvalRequest, err error) {
	return req, json.NewDecoder(bytes.NewReader(body)).Decode(&req)
}

func refEvalResponse(body []byte) (resp EvalResponse, err error) {
	return resp, json.NewDecoder(bytes.NewReader(body)).Decode(&resp)
}

// wireKeys are the keys the scanner reads, at whatever depth.
var wireKeys = []string{"epoch", "degraded", "data", "src", "dist", "labels", "seeds", "proto", "algo", "improved"}

// foldsOntoWireKey reports whether doc holds, at any depth, an object key
// that encoding/json would match to one of wireKeys by case folding and
// the scanner, matching bytes, skips as unknown — the one documented way
// the two read different values from a document both accept.
func foldsOntoWireKey(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	var inObject []bool // one entry per open container
	key := false        // the next string token is a key
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch t := tok.(type) {
		case json.Delim:
			if t == '{' || t == '[' {
				inObject = append(inObject, t == '{')
				key = t == '{'
				continue
			}
			inObject = inObject[:len(inObject)-1]
		case string:
			if key {
				for _, k := range wireKeys {
					if t != k && strings.EqualFold(t, k) {
						return true
					}
				}
				key = false
				continue
			}
		}
		key = len(inObject) > 0 && inObject[len(inObject)-1] // a value ended
	}
}

// checkAgainstReference holds all three scanners to their references on
// one body: whatever a scanner accepts the reference accepts, equal.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	if foldsOntoWireKey(body) {
		return
	}
	for _, algo := range []string{"sssp", "cc"} {
		if got, err := scanView(body, algo); err == nil {
			want, rerr := refView(body, algo)
			if rerr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s view %q:\nscanned   %+v\nreference %+v, %v", algo, body, got, want, rerr)
			}
		}
	}
	if got, err := scanEvalRequest(body); err == nil {
		want, rerr := refEvalRequest(body)
		if rerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("eval request %q:\nscanned   %+v\nreference %+v, %v", body, got, want, rerr)
		}
	}
	if got, err := scanEvalResponse(body); err == nil {
		want, rerr := refEvalResponse(body)
		if rerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("eval response %q:\nscanned   %+v\nreference %+v, %v", body, got, want, rerr)
		}
	}
}

// writtenView is the body serve.WriteQuery answers for v.
func writtenView(t testing.TB, v *serve.View, n int) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	serve.WriteQuery(rec, httptest.NewRequest(http.MethodGet, "/query/"+v.Algo, nil), v, n)
	if rec.Code != http.StatusOK {
		t.Fatalf("WriteQuery: %d %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// writtenViews are views as a shard daemon writes them: both classes, a
// degraded one, Infinity and the widest integers, vectors of 0, 1, one
// page and several pages of entries.
func writtenViews(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(3))
	var bodies [][]byte
	for _, n := range []int{0, 1, 255, 256, 257, 3000} {
		vals := make([]int64, n)
		for i := range vals {
			switch rng.Intn(6) {
			case 0:
				vals[i] = graph.Infinity
			case 1:
				vals[i] = rng.Int63()
			default:
				vals[i] = rng.Int63n(50000)
			}
		}
		if n > 2 {
			vals[0], vals[1], vals[2] = 0, math.MaxInt64, math.MinInt64
		}
		p := serve.Paged[int64]{}.Update(vals, nil)
		bodies = append(bodies,
			writtenView(t, &serve.View{Algo: "sssp", Epoch: uint64(n) * 7, Batches: 3,
				Data: serve.SSSPView{Src: graph.NodeID(n / 2), Dist: p}}, n),
			writtenView(t, &serve.View{Algo: "sssp", Epoch: math.MaxUint64, Batches: 1, Degraded: true,
				Data: serve.SSSPView{Src: math.MaxInt32, Dist: p}}, n),
			writtenView(t, &serve.View{Algo: "cc", Epoch: 1, Data: serve.CCView{Labels: p}}, n))
	}
	return bodies
}

// evalBodies drives a real shard's eval handler and returns the request
// and answer bodies that crossed the wire.
func evalBodies(t testing.TB) (requests, answers [][]byte) {
	rng := rand.New(rand.NewSource(4))
	g := gen.PowerLaw(rng, 400, 5, false)
	p := NewHashPartitioner(2)
	frag := FilterGraph(g, p, 0)
	svc := serve.NewService()
	defer svc.Close()
	if _, err := svc.Host(serve.SSSP(sssp.NewInc(frag, 0)), serve.Options{}); err != nil {
		t.Fatal(err)
	}
	MountShardAPI(svc, p, 0, g.NumNodes(), false, nil)
	h := svc.Handler()
	for _, seeds := range [][][2]int64{nil, {}, {{1, 0}}, {{7, 3}, {7, 2}, {390, 1}}, {{5, graph.Infinity - 1}}} {
		body := appendEvalRequest(nil, seeds)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/eval/sssp", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("eval %s: %d %s", body, rec.Code, rec.Body.String())
		}
		requests = append(requests, body)
		answers = append(answers, rec.Body.Bytes())
	}
	return requests, answers
}

// TestScannersReadWhatTheDaemonWrites: every body serve.WriteQuery and
// the eval handler produce is accepted by scanner and reference alike,
// with equal values.
func TestScannersReadWhatTheDaemonWrites(t *testing.T) {
	for _, body := range writtenViews(t) {
		for _, algo := range []string{"sssp", "cc"} {
			got, err := scanView(body, algo)
			want, rerr := refView(body, algo)
			if err != nil || rerr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s view %.80q…: scanned %v, reference %v\n%+v\n%+v", algo, body, err, rerr, got, want)
			}
		}
	}
	requests, answers := evalBodies(t)
	improved := 0
	for i := range requests {
		req, err := scanEvalRequest(requests[i])
		wantReq, rerr := refEvalRequest(requests[i])
		if err != nil || rerr != nil || !reflect.DeepEqual(req, wantReq) {
			t.Fatalf("eval request %s: scanned %v, reference %v", requests[i], err, rerr)
		}
		resp, err := scanEvalResponse(answers[i])
		wantResp, rerr := refEvalResponse(answers[i])
		if err != nil || rerr != nil || !reflect.DeepEqual(resp, wantResp) {
			t.Fatalf("eval answer %s: scanned %v, reference %v", answers[i], err, rerr)
		}
		if resp.Proto != EvalProto || resp.Algo != "sssp" {
			t.Fatalf("eval answer %s: proto %d algo %q", answers[i], resp.Proto, resp.Algo)
		}
		improved += len(resp.Improved)
	}
	if improved == 0 {
		t.Fatal("no eval improved anything: the answers exercise no pairs")
	}
}

// TestScannerHostileBodies: what the scanner must refuse, what it may
// accept, and — whichever it does — never a value the reference would not
// have read.
func TestScannerHostileBodies(t *testing.T) {
	const view, request, answer = "view", "request", "answer"
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct {
		doc, body string
		accept    bool
	}{
		{view, `{"epoch":7,"data":{"src":2,"dist":[0,5,1]}}`, true},
		{view, " {\t\"epoch\" : 7 ,\r\n\"data\" : { \"dist\" : [ 0 , 5 ] } } \n", true},
		{view, `{}`, true},
		{view, `{"data":{}}`, true},
		{view, `{"data":{"dist":null}}`, true},
		{view, `{"data":{"dist":[]}}`, true},
		{view, `{"epoch":1,"epoch":2,"data":{"dist":[1]},"data":{"dist":[2,3],"src":4}}`, true},
		{view, `{"data":{"dist":[9223372036854775807,-9223372036854775808,-0]}}`, true},
		{view, `{"epoch":18446744073709551615,"data":{"src":2147483647}}`, true},
		{view, `{"data":{"src":-2147483648}}`, true},
		{view, `{"range":[0,4],"x":{"a":[1.5e+3,-0.0,true,false,null,"s\"\\\/\b\f\n\r\t\u00e9\ud834\udd1e"],"\u0061":{}},"data":{}}`, true},
		{view, `{"x":` + deep(maxSkipDepth) + `}`, true},
		{view, `{"x":` + deep(maxSkipDepth+2) + `}`, false}, // encoding/json: fine
		{view, `{"EPOCH":7}`, true},        // skipped; encoding/json reads 7
		{view, `{"data":{"ſrc":7}}`, true}, // likewise
		{view, `{"\u0065poch":7}`, false},  // encoding/json: epoch 7
		{view, `null`, false},              // encoding/json: the zero view
		{view, `{"data":null}`, false},     // likewise
		{view, `{"epoch":null}`, false},
		{view, `{"data":{"dist":[1,null]}}`, false},
		{view, `{"epoch":7} x`, false}, // a json.Decoder never looks
		{view, `{"epoch":7}{"epoch":8}`, false},
		{view, ``, false},
		{view, `   `, false},
		{view, `[]`, false},
		{view, `{"epoch":-1}`, false},
		{view, `{"epoch":-0}`, false},
		{view, `{"epoch":18446744073709551616}`, false},
		{view, `{"epoch":184467440737095516150}`, false},
		{view, `{"epoch":1.0}`, false},
		{view, `{"epoch":1e3}`, false},
		{view, `{"epoch":"7"}`, false},
		{view, `{"epoch":07}`, false},
		{view, `{"epoch":+7}`, false},
		{view, `{"epoch":0x7}`, false},
		{view, `{"degraded":1}`, false},
		{view, `{"degraded":"true"}`, false},
		{view, `{"degraded":truex}`, false},
		{view, `{"data":{"src":2147483648}}`, false},
		{view, `{"data":{"src":-2147483649}}`, false},
		{view, `{"data":{"src":1.0}}`, false},
		{view, `{"data":{"dist":[9223372036854775808]}}`, false},
		{view, `{"data":{"dist":[-9223372036854775809]}}`, false},
		{view, `{"data":{"dist":[1000000000000000000000000]}}`, false},
		{view, `{"data":{"dist":[1.0]}}`, false},
		{view, `{"data":{"dist":[1e3]}}`, false},
		{view, `{"data":{"dist":[1E3]}}`, false},
		{view, `{"data":{"dist":[01]}}`, false},
		{view, `{"data":{"dist":[-]}}`, false},
		{view, `{"data":{"dist":[1,]}}`, false},
		{view, `{"data":{"dist":[,1]}}`, false},
		{view, `{"data":{"dist":[1 2]}}`, false},
		{view, `{"data":{"dist":[1,"2"]}}`, false},
		{view, `{"data":{"dist":{"0":1}}}`, false},
		{view, `{"data":{"dist":[1],}}`, false},
		{view, `{"data":[1]}`, false},
		{view, `{"epoch":7,}`, false},
		{view, `{,"epoch":7}`, false},
		{view, `{epoch:7}`, false},
		{view, `{"epoch" 7}`, false},
		{view, `{"x":[1,2}}`, false},
		{view, `{"x":{"a":1]}`, false},
		{view, `{"x":{1:2}}`, false},
		{view, `{"x":"a` + "\n" + `b"}`, false},
		{view, `{"x":"\x"}`, false},
		{view, `{"x":"\u12g4"}`, false},
		{view, `{"x":"\u12"}`, false},
		{view, `{"x":tru}`, false},
		{view, `{"x":nul}`, false},
		{view, `{"x":1.}`, false},
		{view, `{"x":.5}`, false},
		{view, `{"x":1e}`, false},
		{view, `{"x":1e+}`, false},
		{view, `{"x":-}`, false},
		{view, `{"x":00}`, false},
		{view, "{\"x\":1}\x00", false},

		{request, `{"seeds":[[3,1],[4,2]]}`, true},
		{request, `{"seeds":null}`, true},
		{request, `{"seeds":[]}`, true},
		{request, `{}`, true},
		{request, `{"seeds":[[1,2]],"seeds":[[3,4]]}`, true},
		{request, `{"seeds":[ [ -0 , 9223372036854775807 ] ]}`, true},
		{request, `{"seeds":[[3]]}`, false},     // encoding/json: [3,0]
		{request, `{"seeds":[[3,1,2]]}`, false}, // encoding/json: [3,1]
		{request, `{"seeds":[[]]}`, false},
		{request, `{"seeds":[null]}`, false},
		{request, `{"seeds":[[3,1.0]]}`, false},
		{request, `{"seeds":[[3,1e0]]}`, false},
		{request, `{"seeds":[[3,9223372036854775808]]}`, false},
		{request, `{"seeds":[[3,1],]}`, false},
		{request, `{"seeds":[[3,1]`, false},
		{request, `{"seeds":[3,1]}`, false},
		{request, `{"seeds":{"3":1}}`, false},
		{request, `{"seeds":[[3,1]]}}`, false},

		{answer, `{"proto":2,"algo":"sssp","epoch":5,"improved":[[1,2]]}` + "\n", true},
		{answer, `{"proto":2,"algo":"sssp","epoch":5,"improved":null}`, true},
		{answer, `{"proto":2,"algo":"sssp","epoch":5,"improved":[]}`, true},
		{answer, `{"algo":"sssp","epoch":0,"values":[0,1,2]}`, true}, // pre-v2: proto reads 0
		{answer, `{"proto":2,"algo":"é"}`, true},
		{answer, `{"proto":2,"algo":"s\u0073sp"}`, false}, // encoding/json: "sssp"
		{answer, `{"proto":2,"algo":"` + "\xff" + `"}`, false},
		{answer, `{"proto":2,"algo":7}`, false},
		{answer, `{"proto":2.0}`, false},
		{answer, `{"proto":9223372036854775808}`, false},
		{answer, `{"proto":"2"}`, false},
		{answer, `{"proto":2,"epoch":-3}`, false},
		{answer, `{"proto":2,"improved":[[1,2],[3]]}`, false},
	} {
		body := []byte(tc.body)
		var err error
		switch tc.doc {
		case view:
			_, err = scanView(body, "sssp")
		case request:
			_, err = scanEvalRequest(body)
		case answer:
			_, err = scanEvalResponse(body)
		}
		if (err == nil) != tc.accept {
			t.Errorf("%s %q: err = %v, want accepted = %v", tc.doc, tc.body, err, tc.accept)
		}
		checkAgainstReference(t, body)
	}

	// Values, not only verdicts.
	sv, err := scanView([]byte(`{"epoch":1,"epoch":2,"degraded":true,"data":{"dist":[1]},"data":{"dist":[2,-3],"src":4,"labels":[9]}}`), "sssp")
	if want := (ShardView{Epoch: 2, Degraded: true, Src: 4, Values: []int64{2, -3}}); err != nil || !reflect.DeepEqual(sv, want) {
		t.Fatalf("scanned %+v, %v; want %+v", sv, err, want)
	}
	if sv, err := scanView([]byte(`{"data":{"dist":[1],"labels":[9,8]}}`), "cc"); err != nil || !reflect.DeepEqual(sv.Values, []int64{9, 8}) {
		t.Fatalf("cc view reads %v, %v; want the labels", sv.Values, err)
	}
	if sv, err := scanView([]byte(`{"data":{"dist":null}}`), "sssp"); err != nil || sv.Values != nil {
		t.Fatalf("null vector reads %v, %v; want nil", sv.Values, err)
	}

	// A document cut short anywhere is refused, up to the newline that
	// follows it.
	for _, whole := range []string{
		`{"algo":"sssp","epoch":12,"batches":3,"degraded":true,"data":{"src":1,"dist":[0,-7,2305843009213693951]}}` + "\n",
		`{"proto":2,"algo":"sssp","epoch":5,"improved":[[1,20],[33,4]]}` + "\n",
		`{"seeds":[[1,20],[33,4]]}`,
	} {
		end := len(strings.TrimSuffix(whole, "\n"))
		for cut := 0; cut <= len(whole); cut++ {
			body := []byte(whole[:cut])
			_, verr := scanView(body, "sssp")
			_, qerr := scanEvalRequest(body)
			_, aerr := scanEvalResponse(body)
			if accepted := verr == nil || qerr == nil || aerr == nil; accepted != (cut >= end) {
				t.Fatalf("%q cut at %d of %d: view %v, request %v, answer %v", whole, cut, len(whole), verr, qerr, aerr)
			}
			checkAgainstReference(t, body)
		}
	}
}

// FuzzWireDecode holds the three scanners to encoding/json on arbitrary
// bytes: whatever a scanner accepts, the reflected decode into the
// structs this package used to decode into accepts too, with equal values
// (documents with a key that only case folding matches excepted, see
// foldsOntoWireKey). Seeded with what the daemon writes and with hostile
// shapes.
func FuzzWireDecode(f *testing.F) {
	// Small seeds: the fuzzer minimizes every input it keeps a byte at a
	// time, and on a view of a few kilobytes that is all it does. What the
	// daemon writes at size is TestScannersReadWhatTheDaemonWrites's.
	vec := serve.Paged[int64]{}.Update([]int64{0, graph.Infinity, -7}, nil)
	f.Add(writtenView(f, &serve.View{Algo: "sssp", Epoch: 12, Batches: 3, Degraded: true,
		Data: serve.SSSPView{Src: 1, Dist: vec}}, vec.Len()))
	f.Add(writtenView(f, &serve.View{Algo: "cc", Epoch: 1, Data: serve.CCView{Labels: vec}}, vec.Len()))
	f.Add(writtenView(f, &serve.View{Algo: "cc", Data: serve.CCView{}}, 0))
	f.Add(appendEvalRequest(nil, [][2]int64{{7, 3}, {390, 1}}))
	f.Add(appendEvalRequest(nil, nil))
	f.Add(appendEvalResponse(nil, &EvalResponse{Proto: EvalProto, Algo: "sssp", Epoch: 9, Improved: [][2]int64{{1, 20}, {33, 4}}}))
	f.Add(appendEvalResponse(nil, &EvalResponse{Proto: EvalProto, Algo: "sssp", Improved: [][2]int64{}}))
	for _, body := range []string{
		`{"epoch":18446744073709551615,"degraded":false,"data":{"src":-1,"labels":[1,2,3],"dist":null}}`,
		`{"data":{"dist":[1]},"x":[{"a":"\u00e9\\"},1.5e-3,null],"data":{"src":2}}`,
		`{"seeds":[[1,2]],"seeds":[[-0,9223372036854775807]]}`,
		`{"proto":2,"algo":"sssp","epoch":0,"values":[0,1,2]}`,
		`{"EPOCH":1,"Seeds":[[1,2]],"ſrc":3}`,
		`{"epoch":1e3,"proto":2.0,"seeds":[[1]]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

// TestReadBodyCap: a body is read whole up to the cap and refused one
// byte past it, announced or not.
func TestReadBodyCap(t *testing.T) {
	const limit = 1000
	for _, tc := range []struct {
		size int
		hint int64
		ok   bool
	}{
		{0, -1, true}, {0, 0, true}, {10, 10, true}, {10, -1, true},
		{limit, limit, true}, {limit, -1, true},
		{limit + 1, -1, false}, {limit + 1, limit + 1, false},
		{limit + 1, 10, false},       // an understated Content-Length does not lift the cap
		{10, maxEvalBody + 1, false}, // an overstated one is refused before a byte is read
	} {
		got, err := readBody(bytes.NewReader(make([]byte, tc.size)), tc.hint, limit)
		if (err == nil) != tc.ok || err == nil && len(got) != tc.size {
			t.Errorf("size %d hint %d: %d bytes, err %v; want ok = %v", tc.size, tc.hint, len(got), err, tc.ok)
		}
	}
}

// TestWireWritersMatchEncodingJSON: the eval request and answer are
// written byte for byte as encoding/json writes them — the peer may be
// built from the commit before this file.
func TestWireWritersMatchEncodingJSON(t *testing.T) {
	request := func(seeds [][2]int64) bool {
		want, err := json.Marshal(EvalRequest{Seeds: seeds})
		return err == nil && bytes.Equal(appendEvalRequest(nil, seeds), want)
	}
	answer := func(resp EvalResponse) bool {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			return false
		}
		got := appendEvalResponse(nil, &resp)
		if !bytes.Equal(got, want.Bytes()) {
			t.Logf("\n got %s\nwant %s", got, want.Bytes())
			return false
		}
		// And back: the scanner reads what the writer wrote, where the algo
		// needed no escape.
		back, err := scanEvalResponse(got)
		if bytes.Contains(got, []byte(`\`)) {
			return err != nil
		}
		return err == nil && reflect.DeepEqual(back, resp)
	}
	if err := quick.Check(request, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(answer, nil); err != nil {
		t.Error(err)
	}
	for _, seeds := range [][][2]int64{nil, {}, {{0, 0}}, {{math.MinInt64, math.MaxInt64}, {-1, graph.Infinity}}} {
		if !request(seeds) {
			t.Errorf("request %v differs from json.Marshal", seeds)
		}
	}
	for _, algo := range []string{"sssp", "", "a b", `"\`, "<script>&amp;</script>", "\b\f\n\r\t\x00\x1f\x7f",
		"é\u2028\u2029\ufffd\U0001d11e", "\xff", "a\xc3", "\xed\xa0\x80", "ſK"} {
		for _, improved := range [][][2]int64{nil, {}, {{3, 4}}} {
			if !answer(EvalResponse{Proto: EvalProto, Algo: algo, Epoch: math.MaxUint64, Improved: improved}) {
				t.Errorf("answer with algo %q, improved %v differs from json.Encoder", algo, improved)
			}
		}
	}
	if !answer(EvalResponse{Proto: math.MinInt, Epoch: 0}) {
		t.Error("answer with a negative proto differs from json.Encoder")
	}
}

// TestClientAgainstOddShards: Client.View and Client.Eval against shards
// that answer something else than this version's daemon would.
func TestClientAgainstOddShards(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	answering := func(status int, header map[string]string, body string) *Client {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			for k, v := range header {
				w.Header().Set(k, v)
			}
			w.WriteHeader(status)
			io.WriteString(w, body)
		}))
		t.Cleanup(srv.Close)
		return &Client{Base: srv.URL}
	}

	c := answering(200, nil, `{"proto":1,"algo":"sssp","epoch":3,"improved":[[1,2]]}`)
	if _, err := c.Eval(ctx, "sssp", [][2]int64{{1, 5}}); err == nil || !strings.Contains(err.Error(), "protocol 1") {
		t.Errorf("proto 1 answer: err = %v, want a protocol mismatch", err)
	}
	// The pre-v2 shape: no proto, a dense vector. Taking its absent
	// "improved" for "nothing improved" would return wrong distances.
	c = answering(200, nil, `{"algo":"sssp","epoch":3,"values":[0,1,2]}`)
	if _, err := c.Eval(ctx, "sssp", [][2]int64{{1, 5}}); err == nil || !strings.Contains(err.Error(), "protocol 0") {
		t.Errorf("dense answer: err = %v, want a protocol mismatch", err)
	}
	c = answering(200, nil, `{"proto":2,"algo":"sssp","epoch":3,"improved":[[1,2]]} trailing`)
	if _, err := c.Eval(ctx, "sssp", nil); err == nil || !strings.Contains(err.Error(), c.Base) {
		t.Errorf("trailing data: err = %v, want a scan error naming the shard", err)
	}
	c = answering(200, nil, `{"proto":2,"algo":"sssp","epoch":3,"improved":[[7,2]]}`+"\n")
	if resp, err := c.Eval(ctx, "sssp", nil); err != nil || resp.Epoch != 3 || !reflect.DeepEqual(resp.Improved, [][2]int64{{7, 2}}) {
		t.Errorf("good answer: %+v, %v", resp, err)
	}

	for _, verb := range []func(*Client) error{
		func(c *Client) error { _, err := c.View(ctx, "sssp"); return err },
		func(c *Client) error { _, err := c.Eval(ctx, "sssp", nil); return err },
	} {
		err := verb(answering(503, map[string]string{"Retry-After": "7"}, "draining\n"))
		se, ok := err.(*StatusError)
		if !ok || se.Code != 503 || se.RetryAfter != 7*time.Second || se.Body != "draining" {
			t.Errorf("503 with Retry-After: %#v", err)
		}
		if hint, ok := RetryAfterHint(err); !ok || hint != 7*time.Second || !IsShed(err) {
			t.Errorf("503 hint = %v, %v", hint, ok)
		}
		if se, ok := verb(answering(400, nil, "no")).(*StatusError); !ok || se.Code != 400 {
			t.Error("400 is not a StatusError")
		}
		// A peer announcing more than the cap is refused before it is read.
		big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(maxEvalBody+1))
			w.Write([]byte("{"))
		}))
		if err := verb(&Client{Base: big.URL}); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("oversized answer: err = %v", err)
		}
		big.Close()
	}

	c = answering(200, nil, `{"algo":"sssp","epoch":9,"batches":1,"degraded":true,"data":{"src":1,"dist":[4,0,`+strconv.FormatInt(graph.Infinity, 10)+`]}}`+"\n")
	if sv, err := c.View(ctx, "sssp"); err != nil || !reflect.DeepEqual(sv, ShardView{Epoch: 9, Degraded: true, Src: 1, Values: []int64{4, 0, graph.Infinity}}) {
		t.Errorf("view: %+v, %v", sv, err)
	}
	c = answering(200, nil, `{"algo":"sssp","epoch":9,"data":{"src":1,"dist":[4,0.5]}}`)
	if _, err := c.View(ctx, "sssp"); err == nil || !strings.Contains(err.Error(), c.Base) {
		t.Errorf("float in a view: err = %v", err)
	}
	if _, err := c.View(ctx, "lcc"); err == nil {
		t.Error("view of a class with no exchange accepted")
	}
}

// wrongView is a maintainer registered as sssp that publishes something
// else than an SSSPView: the state evalHost's invariant check is for.
type wrongView struct{ g *graph.Graph }

func (wrongView) Algo() string                        { return "sssp" }
func (w wrongView) Graph() *graph.Graph               { return w.g }
func (wrongView) Apply(graph.Batch) serve.ApplyResult { return serve.ApplyResult{} }
func (wrongView) Snapshot() any                       { return map[string]int{"not": 1} }
func (wrongView) PersistState(io.Writer) error        { return nil }
func (wrongView) RestoreState(io.Reader) error        { return nil }
func (wrongView) Recompute()                          {}

// TestEvalHandlerStatus: the eval handler answers 400 for what the caller
// sent wrong, 503 + Retry-After when the host is closed (a draining
// shard: the router retries, by then perhaps against the slot's next
// member), and 500 when the shard's own state is at fault — not 400 for
// all three, which a router never retries.
func TestEvalHandlerStatus(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.PowerLaw(rng, 50, 4, false)
	p := NewHashPartitioner(1)
	post := func(h http.Handler, algo, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/eval/"+algo, strings.NewReader(body)))
		return rec
	}

	srv := startShardDaemon(t, g, p, 0, 0) // registers its own cleanup
	live := func(algo, body string) int {
		resp, err := http.Post(srv.URL+"/shard/eval/"+algo, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for _, tc := range []struct {
		algo, body string
		want       int
	}{
		{"sssp", `{"seeds":[[3,1]]}`, 200},
		{"sssp", `{"seeds":null}`, 200},
		{"sssp", `{"seeds":[[50,1]]}`, 400},
		{"sssp", `{"seeds":[[-1,1]]}`, 400},
		{"sssp", `{"seeds":[[3,-1]]}`, 400},
		{"sssp", `{"seeds":[[3,` + strconv.FormatInt(graph.Infinity, 10) + `]]}`, 400},
		{"sssp", `{"seeds":[[3,1.5]]}`, 400},
		{"sssp", `{"seeds":[[3,1]]} {}`, 400},
		{"sssp", `{"seeds":[[3,1]`, 400},
		{"sssp", ``, 400},
		{"cc", `{"seeds":[]}`, 400},
		{"lcc", `{"seeds":[]}`, 404},
	} {
		if got := live(tc.algo, tc.body); got != tc.want {
			t.Errorf("eval/%s %q: %d, want %d", tc.algo, tc.body, got, tc.want)
		}
	}

	closed := serve.NewService()
	if _, err := closed.Host(serve.SSSP(sssp.NewInc(g.Clone(), 0)), serve.Options{}); err != nil {
		t.Fatal(err)
	}
	MountShardAPI(closed, p, 0, g.NumNodes(), false, nil)
	h := closed.Handler()
	closed.Close()
	rec := post(h, "sssp", `{"seeds":[[3,1]]}`)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("eval on a closed host: %d, Retry-After %q; want 503 with a hint", rec.Code, rec.Header().Get("Retry-After"))
	}
	if post(h, "sssp", `{"seeds":[[50,1]]}`).Code != http.StatusServiceUnavailable {
		t.Error("bad seeds on a closed host: the host's state comes first, as the seeds are checked inside it")
	}

	broken := serve.NewService()
	defer broken.Close()
	if _, err := broken.Host(wrongView{g.Clone()}, serve.Options{}); err != nil {
		t.Fatal(err)
	}
	MountShardAPI(broken, p, 0, g.NumNodes(), false, nil)
	if rec := post(broken.Handler(), "sssp", `{"seeds":[[3,1]]}`); rec.Code != http.StatusInternalServerError {
		t.Errorf("eval on a host with a foreign view: %d %s, want 500", rec.Code, rec.Body.String())
	}
}

// TestRouterRetriesEvalOnClosingShard: a shard that closes between the
// router's gather and its eval answers 503, and the router retries the
// eval against the member the slot points at by then — the answer is the
// exact one, not a degraded partial with the shard exchange-lost.
func TestRouterRetriesEvalOnClosingShard(t *testing.T) {
	leakCheck(t)
	rng := rand.New(rand.NewSource(31))
	g := gen.PowerLaw(rng, 300, 6, false)
	src := graph.NodeID(0)
	p := NewHashPartitioner(2)
	s0 := startShardDaemon(t, g, p, 0, src)
	var evals atomic.Int32
	// shard 1's successor, same fragment, same epoch. Until the promotion
	// it is the slot's replica, and a view read hedged to it would answer
	// for the slot and degrade the query: such a read waits until the
	// primary's answer cancels it.
	next := startWrappedShard(t, g, p, 1, src, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/query/") && evals.Load() == 0 {
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	svc := serve.NewService()
	if _, err := svc.Host(serve.SSSP(sssp.NewInc(FilterGraph(g, p, 1), src)), serve.Options{}); err != nil {
		t.Fatal(err)
	}
	MountShardAPI(svc, p, 1, g.NumNodes(), false, nil)
	inner := svc.Handler()
	var table *Table
	leaving := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/shard/eval/") {
			// The shard drains under the eval; its supervisor points the
			// slot at the successor.
			evals.Add(1)
			svc.Close()
			if _, err := table.Promote(1); err != nil {
				t.Error(err)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { leaving.Close(); svc.Close() })

	table = NewTable([]string{s0.URL, leaving.URL})
	table.SetReplica(1, next.URL)
	rt, err := NewRouter(RouterOptions{Part: p, Table: table, NumNodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	w, res := queryRouter(t, rt.Handler(), "sssp", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	if n := evals.Load(); n != 1 {
		t.Fatalf("the closing shard saw %d evals, want the one it refused", n)
	}
	if res.Degraded || !res.Consistent || len(res.Shards) != 0 {
		t.Fatalf("eval on a closing shard was not retried: degraded=%v consistent=%v shards=%+v", res.Degraded, res.Consistent, res.Shards)
	}
	if res.ExchangeEvals == 0 {
		t.Fatal("no eval was made: the test exercised nothing")
	}
	want := sssp.Dijkstra(g, src)
	for v := range want {
		if res.Data.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Data.Dist[v], want[v])
		}
	}
}

// parentEvalHandler is the eval handler as it stood before wire.go —
// encoding/json in, encoding/json out — over svc: the shard side of a
// cluster whose shards are older than its router.
func parentEvalHandler(svc *serve.Service) http.Handler {
	var relaxer seedRelaxer
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := svc.Get(strings.TrimPrefix(r.URL.Path, "/shard/eval/"))
		var req EvalRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEvalBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := evalHost(h, &relaxer, req.Seeds)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}

// parentQuery answers an sssp query as a router built before wire.go
// would: views and evals fetched with net/http and decoded by
// encoding/json (the reference decoders), the exchange itself unchanged.
func parentQuery(t *testing.T, p Partitioner, directed bool, n int, addrs []string) ([]int64, ExchangeStats) {
	t.Helper()
	fetch := func(method, url string, body []byte) []byte {
		req, _ := http.NewRequest(method, url, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, data)
		}
		return data
	}
	views := make([][]int64, len(addrs))
	epochs := make(EpochVector, len(addrs))
	for i, addr := range addrs {
		sv, err := refView(fetch(http.MethodGet, addr+"/query/sssp", nil), "sssp")
		if err != nil {
			t.Fatal(err)
		}
		views[i], epochs[i] = sv.Values, sv.Epoch
	}
	return SSSPExchange(p, directed, n, views, epochs, func(i int, seeds [][2]int64) ([][2]int64, uint64, error) {
		body, _ := json.Marshal(EvalRequest{Seeds: seeds})
		resp, err := refEvalResponse(fetch(http.MethodPost, addrs[i]+"/shard/eval/sssp", body))
		if err == nil && resp.Proto != EvalProto {
			err = fmt.Errorf("proto %d", resp.Proto)
		}
		return resp.Improved, resp.Epoch, err
	})
}

// TestExchangeMixedVersions: the wire did not change, so a router and
// shards on either side of this change answer a routed query alike — the
// single-process answer, in the same rounds, evals and pairs — with the
// parent-shaped encoding/json code on the shard side, on the router side,
// or on neither.
func TestExchangeMixedVersions(t *testing.T) {
	leakCheck(t)
	for _, directed := range []bool{true, false} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			g := gen.PowerLaw(rng, 300, 6, directed)
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			const shards = 3
			p := NewHashPartitioner(shards)
			var oldShards atomic.Bool
			addrs := make([]string, shards)
			for id := range addrs {
				svc := serve.NewService()
				if _, err := svc.Host(serve.SSSP(sssp.NewInc(FilterGraph(g, p, id), src)), serve.Options{}); err != nil {
					t.Fatal(err)
				}
				MountShardAPI(svc, p, id, g.NumNodes(), directed, nil)
				current, parent := svc.Handler(), parentEvalHandler(svc)
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if oldShards.Load() && strings.HasPrefix(r.URL.Path, "/shard/eval/") {
						parent.ServeHTTP(w, r)
						return
					}
					current.ServeHTTP(w, r)
				}))
				t.Cleanup(func() { srv.Close(); svc.Close() })
				addrs[id] = srv.URL
			}
			rt, err := NewRouter(RouterOptions{Part: p, Table: NewTable(addrs), Directed: directed, NumNodes: g.NumNodes()})
			if err != nil {
				t.Fatal(err)
			}
			h := rt.Handler()
			routed := func() ([]int64, ExchangeStats) {
				w, res := queryRouter(t, h, "sssp", "")
				if w.Code != http.StatusOK || !res.Consistent || res.Degraded {
					t.Fatalf("routed query: %d %+v", w.Code, res.QueryMeta)
				}
				return res.Data.Dist, ExchangeStats{Rounds: res.ExchangeRounds, Evals: res.ExchangeEvals,
					PairsOut: res.ExchangePairsOut, PairsIn: res.ExchangePairsIn, Converged: true}
			}
			for round := 0; round < 4; round++ {
				if round > 0 {
					b := gen.RandomUpdates(rng, g, 60, 0.5)
					if w, _ := postBatch(t, h, b, true); w.Code != http.StatusOK {
						t.Fatalf("round %d: update: %d %s", round, w.Code, w.Body.String())
					}
					g.Apply(b)
				}
				want := sssp.Dijkstra(g, src)
				dist, st := routed()
				if st.Evals == 0 {
					t.Fatalf("round %d: no eval crossed the wire", round)
				}
				oldShards.Store(true)
				distOldShards, stOldShards := routed()
				oldShards.Store(false)
				distOldRouter, stOldRouter := parentQuery(t, p, directed, g.NumNodes(), addrs)
				for name, got := range map[string][]int64{"this version": dist, "parent shards": distOldShards, "parent router": distOldRouter} {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d, %s: answer differs from Dijkstra", round, name)
					}
				}
				if stOldShards != st || stOldRouter != st {
					t.Fatalf("round %d: exchange cost %+v, with parent shards %+v, with a parent router %+v", round, st, stOldShards, stOldRouter)
				}
			}
		})
	}
}

// The sizes BenchmarkWire* run at are a routed sssp query's on the
// repository benchmark's cluster workload: a 3,000-node view, an eval
// request of 285 seeds, an answer of 650 improved pairs.

func benchView(b *testing.B) []byte {
	rng := rand.New(rand.NewSource(1))
	dist := make([]int64, 3000)
	for i := range dist {
		if dist[i] = rng.Int63n(400); rng.Intn(50) == 0 {
			dist[i] = graph.Infinity
		}
	}
	return writtenView(b, &serve.View{Algo: "sssp", Epoch: 123456, Batches: 789,
		Data: serve.SSSPView{Src: 0, Dist: serve.Paged[int64]{}.Update(dist, nil)}}, len(dist))
}

func benchPairs(n int) [][2]int64 {
	rng := rand.New(rand.NewSource(int64(n)))
	pairs := make([][2]int64, n)
	for i := range pairs {
		pairs[i] = [2]int64{rng.Int63n(3000), rng.Int63n(400)}
	}
	return pairs
}

var benchSink int

func BenchmarkWireDecode(b *testing.B) {
	view := benchView(b)
	answer := appendEvalResponse(nil, &EvalResponse{Proto: EvalProto, Algo: "sssp", Epoch: 123456, Improved: benchPairs(650)})
	request := appendEvalRequest(nil, benchPairs(285))
	for _, bc := range []struct {
		name       string
		body       []byte
		scan, json func([]byte) (int, error)
	}{
		{"view3000", view,
			func(body []byte) (int, error) { sv, err := scanView(body, "sssp"); return len(sv.Values), err },
			func(body []byte) (int, error) { sv, err := refView(body, "sssp"); return len(sv.Values), err }},
		{"evalresp650", answer,
			func(body []byte) (int, error) { r, err := scanEvalResponse(body); return len(r.Improved), err },
			func(body []byte) (int, error) { r, err := refEvalResponse(body); return len(r.Improved), err }},
		{"evalreq285", request,
			func(body []byte) (int, error) { r, err := scanEvalRequest(body); return len(r.Seeds), err },
			func(body []byte) (int, error) { r, err := refEvalRequest(body); return len(r.Seeds), err }},
	} {
		for _, impl := range []struct {
			name   string
			decode func([]byte) (int, error)
		}{{"scan", bc.scan}, {"json", bc.json}} {
			b.Run(bc.name+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(bc.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n, err := impl.decode(bc.body)
					if err != nil {
						b.Fatal(err)
					}
					benchSink += n
				}
			})
		}
	}
}

func BenchmarkWireEncode(b *testing.B) {
	seeds := benchPairs(285)
	resp := EvalResponse{Proto: EvalProto, Algo: "sssp", Epoch: 123456, Improved: benchPairs(650)}
	for _, bc := range []struct {
		name         string
		append, json func() []byte
	}{
		{"evalreq285",
			func() []byte { return appendEvalRequest(nil, seeds) },
			func() []byte { body, _ := json.Marshal(EvalRequest{Seeds: seeds}); return body }},
		{"evalresp650",
			func() []byte { return appendEvalResponse(nil, &resp) },
			func() []byte {
				var buf bytes.Buffer
				json.NewEncoder(&buf).Encode(resp)
				return buf.Bytes()
			}},
	} {
		for _, impl := range []struct {
			name   string
			encode func() []byte
		}{{"append", bc.append}, {"json", bc.json}} {
			b.Run(bc.name+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(impl.encode())))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink += len(impl.encode())
				}
			})
		}
	}
}
