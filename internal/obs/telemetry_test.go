package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs/obstest"
)

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{-3, 0, 1, 2, 3, 4, 7, 8, 1000, math.MaxInt64} {
		h.Observe(v)
	}
	if h.Count() != 10 {
		t.Errorf("Count = %d, want 10", h.Count())
	}
	// Sum overflows deliberately unchecked; spot-check a smaller histogram.
	h2 := &Histogram{}
	h2.Observe(3)
	h2.Observe(4)
	if h2.Sum() != 7 {
		t.Errorf("Sum = %d, want 7", h2.Sum())
	}

	want := []HistogramBucket{
		{Bound: 0, N: 2},             // -3, 0
		{Bound: 1, N: 1},             // 1
		{Bound: 3, N: 2},             // 2, 3
		{Bound: 7, N: 2},             // 4, 7
		{Bound: 15, N: 1},            // 8
		{Bound: 1023, N: 1},          // 1000
		{Bound: math.MaxInt64, N: 1}, // MaxInt64
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("Buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Bounds must be strictly ascending so the Prometheus exposition's
	// cumulative le series is well-formed.
	for i := 1; i < histBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Errorf("BucketBound(%d) = %d not above BucketBound(%d) = %d",
				i, BucketBound(i), i-1, BucketBound(i-1))
		}
	}

	var nilH *Histogram
	nilH.Observe(5)
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Buckets() != nil {
		t.Error("nil histogram must be inert")
	}
}

// TestHistogramSerializationStable: two registries fed the same
// observations in different orders render byte-identical JSON — the
// property the serve layer's cross-jobs determinism test leans on.
func TestHistogramSerializationStable(t *testing.T) {
	obs := []int64{1, 5, 9, 100, 0, 7}
	render := func(order []int64) string {
		r := NewRegistry()
		h := r.Scope("serve").Histogram("queue_depth")
		for _, v := range order {
			h.Observe(v)
		}
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	rev := make([]int64, len(obs))
	for i, v := range obs {
		rev[len(obs)-1-i] = v
	}
	if a, b := render(obs), render(rev); a != b {
		t.Errorf("histogram JSON depends on observation order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(render(obs), `"buckets": [[0,1],[1,1],[7,2],[15,1],[127,1]]`) {
		t.Errorf("unexpected bucket rendering:\n%s", render(obs))
	}
}

func TestTraceIDDeterministic(t *testing.T) {
	a := TraceID("req", "1", "ks")
	if b := TraceID("req", "1", "ks"); a != b {
		t.Errorf("same parts gave %q and %q", a, b)
	}
	if len(a) != 16 {
		t.Errorf("TraceID length = %d, want 16 hex digits", len(a))
	}
	// The NUL separator keeps part boundaries significant.
	if TraceID("ab", "c") == TraceID("a", "bc") {
		t.Error("part boundaries are not significant")
	}
}

func TestSpanTreeWriteJSON(t *testing.T) {
	tr := NewSpanTree("deadbeef00000000", nil)
	root := tr.Root("request")
	root.SetStr("workload", "ks").SetInt("status", 200)
	child := root.Child("cache.lookup")
	child.SetStr("layer", "mem")
	child.Finish()
	root.Finish()

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.HasSuffix(out, "\n") {
		t.Error("WriteJSON must not end with a newline (dumps embed it)")
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("WriteJSON output is not valid JSON:\n%s", out)
	}
	var doc struct {
		TraceID string `json:"trace_id"`
		Clock   string `json:"clock"`
		Spans   []struct {
			ID     int            `json:"id"`
			Parent int            `json:"parent"`
			Name   string         `json:"name"`
			Start  int64          `json:"start"`
			End    int64          `json:"end"`
			Attrs  map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != "deadbeef00000000" || doc.Clock != "logical" {
		t.Errorf("header = (%q, %q)", doc.TraceID, doc.Clock)
	}
	if len(doc.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(doc.Spans))
	}
	r, c := doc.Spans[0], doc.Spans[1]
	if r.Parent != 0 || c.Parent != r.ID {
		t.Errorf("parent links: root=%d child=%d (root id %d)", r.Parent, c.Parent, r.ID)
	}
	// Logical clock: root starts at 1; the child's events nest inside.
	if !(r.Start == 1 && r.Start < c.Start && c.Start < c.End && c.End < r.End) {
		t.Errorf("logical times not nested: root [%d,%d], child [%d,%d]",
			r.Start, r.End, c.Start, c.End)
	}
	if r.Attrs["workload"] != "ks" || r.Attrs["status"] != float64(200) {
		t.Errorf("root attrs = %v", r.Attrs)
	}

	// Identical trees render identical bytes.
	tr2 := NewSpanTree("deadbeef00000000", nil)
	root2 := tr2.Root("request")
	root2.SetStr("workload", "ks").SetInt("status", 200)
	c2 := root2.Child("cache.lookup")
	c2.SetStr("layer", "mem")
	c2.Finish()
	root2.Finish()
	var b2 bytes.Buffer
	tr2.WriteJSON(&b2)
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Error("identical span trees rendered different bytes")
	}
}

// hostileStrings is what a span name, attribute or trace ID could carry
// that a JSON string literal must escape — or that encoding/json escapes
// although JSON would not ask it to.
var hostileStrings = []string{
	"", "ks", "cache.lookup", "a b", "~", "\x7f",
	`say "hi"`, `back\slash`, `\"`, "<script>", "a&b", "x>y",
	"tab\there", "line\nfeed", "cr\r", "nul\x00", "esc\x1b[0m", "\x1f",
	"naïve", "日本語", "\u2028line\u2029sep", "😀",
	"\xff", "bad\xc3", "\xed\xa0\x80", "ok\xf0\x9f\x98", "\xc0\x80",
}

// refSpanJSON is SpanTree.WriteJSON as it was while it rendered with fmt
// and one json.Marshal per string, kept as the reference for the bytes of
// every retained trace, flight dump and golden.
func refSpanJSON(t *SpanTree) string {
	str := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "{\n\"trace_id\": %s,\n\"clock\": %s,\n\"spans\": [", str(t.traceID), str("logical"))
	for i, s := range t.spans {
		sep := ","
		if i == 0 {
			sep = ""
		}
		attrs := append([]spanAttr(nil), s.attrs...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].key < attrs[j].key })
		var ab []byte
		for j, a := range attrs {
			if j > 0 {
				ab = append(ab, ", "...)
			}
			if a.isStr {
				ab = append(ab, fmt.Sprintf("%s: %s", str(a.key), str(a.str))...)
			} else {
				ab = append(ab, fmt.Sprintf("%s: %d", str(a.key), a.num)...)
			}
		}
		fmt.Fprintf(&out, "%s\n{\"id\": %d, \"parent\": %d, \"name\": %s, \"start\": %d, \"end\": %d, \"attrs\": {%s}}",
			sep, s.id, s.parent, str(s.name), s.start, s.end, ab)
	}
	out.WriteString("\n]\n}")
	return out.String()
}

// TestSpanJSONMatchesEncodingJSON: the span renderer writes strings
// itself when they are plain ASCII and hands the rest to json.Marshal;
// either way the bytes are json.Marshal's, string by string and for whole
// trees.
func TestSpanJSONMatchesEncodingJSON(t *testing.T) {
	strs := append([]string(nil), hostileStrings...)
	for c := 0; c < 256; c++ { // every single byte, alone and inside ASCII
		strs = append(strs, string([]byte{byte(c)}), "ab"+string([]byte{byte(c)})+"cd")
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("appendJSONString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
	}

	// Whole trees: hostile strings in every position a string can take,
	// extreme integers, attributes set out of key order and overwritten,
	// an unfinished span, an empty tree.
	trees := []*SpanTree{NewSpanTree("", nil), NewSpanTree("deadbeef00000000", nil)}
	for i, s := range hostileStrings {
		tr := NewSpanTree(s, nil)
		root := tr.Root(s)
		root.SetStr("z", s).SetStr(s, "v").SetInt("m", math.MinInt64).SetInt("a", math.MaxInt64)
		root.SetStr("z", hostileStrings[(i+1)%len(hostileStrings)])
		child := root.Child("child." + s)
		child.SetInt(s, int64(-i))
		root.Child("unfinished")
		child.Finish()
		root.Finish()
		trees = append(trees, tr)
	}
	for _, tr := range trees {
		var b bytes.Buffer
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if want := refSpanJSON(tr); b.String() != want {
			t.Errorf("trace %q renders\n%s\nwant\n%s", tr.traceID, b.String(), want)
		}
		if !json.Valid(b.Bytes()) {
			t.Errorf("trace %q is not valid JSON:\n%s", tr.traceID, b.String())
		}
	}
}

// TestSpanNilSafety: every span and tree method must accept nil, so
// instrumented code paths carry no checks.
func TestSpanNilSafety(t *testing.T) {
	var tr *SpanTree
	if tr.TraceID() != "" || tr.CountSpans("x") != 0 {
		t.Error("nil tree must be inert")
	}
	sp := tr.Root("r")
	if sp != nil {
		t.Fatal("nil tree must yield nil spans")
	}
	sp.SetStr("k", "v").SetInt("n", 1)
	sp.Child("c").Finish()
	sp.Finish()
	if _, ok := sp.StrAttr("k"); ok {
		t.Error("nil span returned an attribute")
	}
	if s, e := sp.Times(); s != 0 || e != 0 {
		t.Error("nil span returned times")
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil || b.String() != "{}" {
		t.Errorf("nil tree WriteJSON = %q, %v", b.String(), err)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 1; i <= 5; i++ {
		f.Record(TraceRecord{
			TraceID: fmt.Sprintf("id%d", i),
			Status:  200,
			JSON:    []byte(fmt.Sprintf("{\"n\": %d}", i)),
		})
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d, want 3", f.Len())
	}
	if _, ok := f.Get("id2"); ok {
		t.Error("evicted trace id2 still retrievable")
	}
	for i := 3; i <= 5; i++ {
		if _, ok := f.Get(fmt.Sprintf("id%d", i)); !ok {
			t.Errorf("retained trace id%d not found", i)
		}
	}

	var b bytes.Buffer
	if err := f.WriteDump(&b, "test", 1, 3); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("dump is not valid JSON:\n%s", b.String())
	}
	var doc struct {
		Schema   int    `json:"schema"`
		Reason   string `json:"reason"`
		Dump     int64  `json:"dump"`
		Recorded int64  `json:"recorded"`
		Retained int    `json:"retained"`
		Traces   []struct {
			TraceID string `json:"trace_id"`
			Status  int    `json:"status"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != 1 || doc.Reason != "test" || doc.Dump != 1 || doc.Recorded != 5 || doc.Retained != 3 {
		t.Errorf("dump header = %+v", doc)
	}
	// Oldest to newest.
	for i, tr := range doc.Traces {
		if want := fmt.Sprintf("id%d", i+3); tr.TraceID != want {
			t.Errorf("dump trace %d = %q, want %q", i, tr.TraceID, want)
		}
	}

	var b2 bytes.Buffer
	f.WriteDump(&b2, "test", 1, 3)
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Error("two dumps of the same state differ")
	}

	// A dump of fewer traces than the ring retains holds the newest ones,
	// oldest first; the older ones still resolve by ID.
	b.Reset()
	if err := f.WriteDump(&b, "test", 2, 2); err != nil {
		t.Fatal(err)
	}
	doc.Traces = nil
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded != 5 || doc.Retained != 2 || len(doc.Traces) != 2 ||
		doc.Traces[0].TraceID != "id4" || doc.Traces[1].TraceID != "id5" {
		t.Errorf("dump of the newest 2 = %+v", doc)
	}
	if _, ok := f.Get("id3"); !ok {
		t.Error("a trace older than the dump window no longer resolves")
	}

	var nilF *FlightRecorder
	nilF.Record(TraceRecord{})
	if nilF.Len() != 0 {
		t.Error("nil recorder must be inert")
	}
	if _, ok := nilF.Get("x"); ok {
		t.Error("nil recorder returned a trace")
	}
}

// TestWritePromParses renders a registry with every instrument type and
// feeds it through the obstest parser — the same check the CI smoke job
// applies to a live /metrics scrape.
func TestWritePromParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(7)
	r.Gauge("serve.queue.depth").Set(2)
	r.Timer("exp.measure-steps").Observe(100)
	r.Timer("exp.measure-steps").Observe(50)
	h := r.Histogram("serve.admission.queue_depth")
	for _, v := range []int64{0, 1, 2, 9, 100} {
		h.Observe(v)
	}

	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	fams := obstest.CheckProm(t, b.Bytes())

	if f := fams["serve_requests"]; f == nil || f.Type != "counter" || f.Samples[0].Value != 7 {
		t.Errorf("serve_requests family = %+v", fams["serve_requests"])
	}
	if f := fams["serve_queue_depth"]; f == nil || f.Type != "gauge" {
		t.Errorf("serve_queue_depth family = %+v", fams["serve_queue_depth"])
	}
	if f := fams["exp_measure_steps"]; f == nil || f.Type != "summary" {
		t.Fatalf("exp_measure_steps family = %+v", fams["exp_measure_steps"])
	}
	hist := fams["serve_admission_queue_depth"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family = %+v", hist)
	}
	var inf float64
	var count float64
	for _, s := range hist.Samples {
		if s.Name == "serve_admission_queue_depth_bucket" && s.Labels["le"] == "+Inf" {
			inf = s.Value
		}
		if s.Name == "serve_admission_queue_depth_count" {
			count = s.Value
		}
	}
	if inf != 5 || count != 5 {
		t.Errorf("+Inf bucket = %v, _count = %v, want 5 observations", inf, count)
	}

	// Byte-stability across renders.
	var b2 bytes.Buffer
	r.WriteProm(&b2)
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Error("two WriteProm renders of the same registry differ")
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.requests":  "serve_requests",
		"a-b/c":           "a_b_c",
		"9lives":          "_9lives",
		"":                "_",
		"already_fine_42": "already_fine_42",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
