package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

func newServer(t *testing.T, o Options) *Server {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// counter reads a counter of s's registry by its full name.
func counter(s *Server, name string) int64 { return s.Metrics().Counter(name).Value() }

func ksReq() *Request {
	return &Request{Workload: "ks", Partitioner: "gremio", Sim: true}
}

func mustOK(t *testing.T, res Result) Response {
	t.Helper()
	if res.Status != http.StatusOK {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	var resp Response
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatalf("response not valid JSON: %v\n%s", err, res.Body)
	}
	return resp
}

// freshBody is the reference for byte comparisons: what a server that has
// seen no other request, and does not degrade, answers req with.
func freshBody(t *testing.T, req *Request) []byte {
	t.Helper()
	res := newServer(t, Options{}).Do(context.Background(), req)
	mustOK(t, res)
	return res.Body
}

// TestColdWarmRestartBytesIdentical is the serving contract: cold
// compute, warm memory hit, and warm disk hit after a restart all return
// the exact same bytes — and the warm paths never re-run the pipeline.
func TestColdWarmRestartBytesIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1 := newServer(t, Options{CacheDir: dir, Degrade: true})

	cold := s1.Do(ctx, ksReq())
	resp := mustOK(t, cold)
	if cold.Source != "cold" {
		t.Fatalf("first request source = %q, want cold", cold.Source)
	}
	if resp.Schema != SchemaVersion || resp.Workload != "ks" || resp.Comm == nil || resp.Cycles == nil {
		t.Fatalf("incomplete response: %+v", resp)
	}
	if resp.Cycles.Speedup <= 0 {
		t.Fatalf("speedup = %v", resp.Cycles.Speedup)
	}
	if st := s1.StatsSnapshot(); st.Compute != 1 {
		t.Fatalf("cold compute count = %d, want 1", st.Compute)
	}

	warm := s1.Do(ctx, ksReq())
	mustOK(t, warm)
	if warm.Source != "warm" {
		t.Fatalf("second request source = %q, want warm", warm.Source)
	}
	if !bytes.Equal(cold.Body, warm.Body) {
		t.Fatalf("warm bytes differ from cold:\n%s\n%s", cold.Body, warm.Body)
	}
	st := s1.StatsSnapshot()
	if st.Compute != 1 {
		t.Fatalf("warm request re-ran the pipeline: compute = %d", st.Compute)
	}
	if st.CacheHitMem == 0 {
		t.Fatalf("warm request did not hit the memory layer: %+v", st)
	}

	// Restart: a fresh server over the same cache dir must serve the
	// same bytes from disk without computing anything.
	s2 := newServer(t, Options{CacheDir: dir, Degrade: true})
	restart := s2.Do(ctx, ksReq())
	mustOK(t, restart)
	if restart.Source != "warm" {
		t.Fatalf("post-restart source = %q, want warm", restart.Source)
	}
	if !bytes.Equal(cold.Body, restart.Body) {
		t.Fatalf("post-restart bytes differ from cold")
	}
	st2 := s2.StatsSnapshot()
	if st2.Compute != 0 {
		t.Fatalf("post-restart request re-ran the pipeline: compute = %d", st2.Compute)
	}
	if st2.CacheHitDisk != 1 {
		t.Fatalf("post-restart hit.disk = %d, want 1", st2.CacheHitDisk)
	}
}

// TestConcurrentMixedRequests is the -race stress: 64 concurrent requests
// over a handful of distinct configurations must each compute exactly
// once, and every response for a given configuration must be
// byte-identical regardless of which path (cold, merged, warm) served it.
// The server degrades, so a request that failed under its own partitioner
// would still be a 200 — carrying the other partitioner's numbers. Hence
// the comparison with a fresh non-degrading server: no fallback was
// taken, under either partitioner, whichever the server saw first.
func TestConcurrentMixedRequests(t *testing.T) {
	s := newServer(t, Options{Degrade: true})
	ctx := context.Background()

	mk := func(workload, part string) *Request {
		return &Request{Workload: workload, Partitioner: part}
	}
	configs := []*Request{
		mk("ks", "gremio"),
		mk("ks", "dswp"),
		mk("adpcmdec", "gremio"),
		mk("adpcmdec", "dswp"),
	}
	const perConfig = 16 // 64 requests total

	results := make([][]Result, len(configs))
	for i := range results {
		results[i] = make([]Result, perConfig)
	}
	var wg sync.WaitGroup
	for ci := range configs {
		for j := 0; j < perConfig; j++ {
			wg.Add(1)
			go func(ci, j int) {
				defer wg.Done()
				results[ci][j] = s.Do(ctx, configs[ci])
			}(ci, j)
		}
	}
	wg.Wait()

	for ci := range configs {
		first := results[ci][0]
		mustOK(t, first)
		for j, r := range results[ci] {
			if r.Status != http.StatusOK {
				t.Fatalf("config %d request %d: status %d: %s", ci, j, r.Status, r.Body)
			}
			if !bytes.Equal(first.Body, r.Body) {
				t.Fatalf("config %d request %d: bytes differ across paths", ci, j)
			}
		}
		if bytes.Contains(first.Body, []byte(`"fallback"`)) {
			t.Fatalf("config %d: answered by the degradation chain: %s", ci, first.Body)
		}
		if want := freshBody(t, configs[ci]); !bytes.Equal(first.Body, want) {
			t.Fatalf("config %d: bytes differ from a fresh non-degrading server's:\n%s\n%s", ci, first.Body, want)
		}
	}
	st := s.StatsSnapshot()
	if st.Compute != int64(len(configs)) {
		t.Fatalf("compute = %d, want exactly %d (one per distinct configuration)", st.Compute, len(configs))
	}
	if st.Requests != int64(len(configs)*perConfig) {
		t.Fatalf("requests = %d, want %d", st.Requests, len(configs)*perConfig)
	}
}

// TestOneServerBothPartitioners: what a server has computed before never
// changes an answer. Two servers schedule every built-in kernel under one
// partitioner and then the other, in opposite orders; until its second
// pass each is a server that only ever saw one partitioner, so its first
// pass is the reference for the other's second. (A server that kept
// analysis artifacts across requests answered 500 "instruction
// unassigned" to every kernel's second partitioner: the kept PDG pointed
// into the first request's IR.)
func TestOneServerBothPartitioners(t *testing.T) {
	ctx := context.Background()
	names := workloads.Names()
	pass := func(s *Server, part string) map[string][]byte {
		bodies := map[string][]byte{}
		for _, name := range names {
			res := s.Do(ctx, &Request{Workload: name, Partitioner: part})
			if res.Status != http.StatusOK || res.Source != "cold" {
				t.Errorf("%s/%s: status %d source %q: %s", name, part, res.Status, res.Source, res.Body)
			}
			bodies[name] = res.Body
		}
		return bodies
	}
	a, b := newServer(t, Options{}), newServer(t, Options{})
	want := map[string]map[string][]byte{"gremio": pass(a, "gremio"), "dswp": pass(b, "dswp")}
	for part, got := range map[string]map[string][]byte{"dswp": pass(a, "dswp"), "gremio": pass(b, "gremio")} {
		for _, name := range names {
			if !bytes.Equal(got[name], want[part][name]) {
				t.Errorf("%s/%s as a server's second partitioner differs from its first:\n%s\n%s",
					name, part, got[name], want[part][name])
			}
		}
	}
	for _, s := range []*Server{a, b} {
		if st := s.StatsSnapshot(); st.Compute != int64(2*len(names)) || st.Errors != 0 {
			t.Errorf("compute = %d errors = %d, want %d / 0", st.Compute, st.Errors, 2*len(names))
		}
	}

}

// TestSimAfterCommSameKernel pins the one cross-request reuse the
// per-request engine gives up (sim:false then sim:true for one kernel
// used to share a pipeline): both still answer, with a fresh server's
// bytes.
func TestSimAfterCommSameKernel(t *testing.T) {
	s := newServer(t, Options{})
	for _, sim := range []bool{false, true} {
		req := &Request{Workload: "adpcmdec", Partitioner: "dswp", Sim: sim}
		res := s.Do(context.Background(), req)
		mustOK(t, res)
		if want := freshBody(t, req); !bytes.Equal(res.Body, want) {
			t.Fatalf("sim=%v differs from a fresh server's:\n%s\n%s", sim, res.Body, want)
		}
	}
	if st := s.StatsSnapshot(); st.Compute != 2 {
		t.Fatalf("compute = %d, want 2", st.Compute)
	}
}

// TestUnknownNamesListValid mirrors the CLI contract over HTTP: unknown
// workload/partitioner names are 400s whose message lists the valid
// names.
func TestUnknownNamesListValid(t *testing.T) {
	s := newServer(t, Options{})
	ctx := context.Background()

	res := s.Do(ctx, &Request{Workload: "bogus"})
	if res.Status != http.StatusBadRequest {
		t.Fatalf("unknown workload status = %d, want 400", res.Status)
	}
	if !strings.Contains(string(res.Body), "ks") || !strings.Contains(string(res.Body), "181.mcf") {
		t.Fatalf("unknown-workload error does not list valid names: %s", res.Body)
	}

	res = s.Do(ctx, &Request{Workload: "ks", Partitioner: "stripe"})
	if res.Status != http.StatusBadRequest {
		t.Fatalf("unknown partitioner status = %d, want 400", res.Status)
	}
	if !strings.Contains(string(res.Body), "gremio") || !strings.Contains(string(res.Body), "dswp") {
		t.Fatalf("unknown-partitioner error does not list valid names: %s", res.Body)
	}

	res = s.Do(ctx, &Request{})
	if res.Status != http.StatusBadRequest {
		t.Fatalf("empty request status = %d, want 400", res.Status)
	}
}

// TestQueueFull is the bounded-admission contract: with the only slot
// occupied, a cache-missing request is rejected with 503 and counted,
// never queued unboundedly.
func TestQueueFull(t *testing.T) {
	s := newServer(t, Options{Queue: 1})
	s.queue <- struct{}{} // occupy the only compute slot
	res := s.Do(context.Background(), &Request{Workload: "ks"})
	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", res.Status, res.Body)
	}
	if st := s.StatsSnapshot(); st.QueueRejected != 1 || st.Compute != 0 {
		t.Fatalf("rejected = %d compute = %d, want 1 / 0", st.QueueRejected, st.Compute)
	}
	<-s.queue
	// With the slot free the same request computes normally.
	res = s.Do(context.Background(), &Request{Workload: "ks"})
	mustOK(t, res)
}

// TestInlineIR schedules an inline IR function (the ks kernel round-
// tripped through its canonical text) and checks the response is
// deterministic across servers.
func TestInlineIR(t *testing.T) {
	ks := workloads.KS()
	in := ks.Train()
	req := &Request{
		IR:          ks.F.String(),
		Name:        "inline-ks",
		Args:        in.Args,
		Mem:         in.Mem,
		Partitioner: "gremio",
	}
	for _, o := range ks.Objects {
		req.Objects = append(req.Objects, MemObject{Name: o.Name, Base: o.Base, Size: o.Size})
	}
	ctx := context.Background()

	s1 := newServer(t, Options{Degrade: true})
	r1 := s1.Do(ctx, req)
	resp := mustOK(t, r1)
	if resp.Workload != "inline-ks" || resp.Comm == nil {
		t.Fatalf("inline response: %+v", resp)
	}
	s2 := newServer(t, Options{Degrade: true})
	r2 := s2.Do(ctx, req)
	mustOK(t, r2)
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("inline IR responses differ across servers:\n%s\n%s", r1.Body, r2.Body)
	}

	if res := s1.Do(ctx, &Request{IR: "not ir at all {{{"}); res.Status != http.StatusBadRequest {
		t.Fatalf("bad IR status = %d, want 400: %s", res.Status, res.Body)
	}
	if res := s1.Do(ctx, &Request{Workload: "ks", IR: "x"}); res.Status != http.StatusBadRequest {
		t.Fatalf("workload+ir status = %d, want 400", res.Status)
	}
	// Text that parses but is no function is the client's error too: the
	// profile run used to reach side's missing terminator and the request
	// was answered 500 after a recovered index-out-of-range panic.
	unterminated := "func f()\nentry:\n  r2 = const 1\n  br r2 side, exit\nside:\n  r3 = add r2, r2\nexit:\n  ret r2\n"
	res := s1.Do(ctx, &Request{IR: unterminated})
	if res.Status != http.StatusBadRequest || !strings.Contains(string(res.Body), "block side is unterminated") {
		t.Fatalf("unterminated block: status %d, want 400 naming the block: %s", res.Status, res.Body)
	}
	if st := s1.StatsSnapshot(); st.Compute != 1 {
		t.Fatalf("compute = %d, want 1: a refused request computes nothing", st.Compute)
	}
}

// selfLatchSum is an inline sum loop whose latch is its own header: the
// edge loop->loop is critical (loop has two successors and two
// predecessors). It parses and verifies, and COCO refuses an unsplit
// critical edge, so the server must split it on the way in.
var selfLatchSum = Request{
	IR: "func sum(r1)\nentry:\n  r2 = const 0\n  r3 = const 1\n  jump loop\n" +
		"loop:\n  r2 = add r2, r1\n  r1 = sub r1, r3\n  br r1 loop, exit\n" +
		"exit:\n  ret r2\n",
	Args: []int64{5}, Partitioner: "gremio", Sim: true,
}

// TestInlineCriticalEdge: inline IR with an unsplit critical edge is
// scheduled and simulated; it was answered 500 when coco.Plan refused the
// edge.
func TestInlineCriticalEdge(t *testing.T) {
	s := newServer(t, Options{})
	req := selfLatchSum
	res := s.Do(context.Background(), &req)
	resp := mustOK(t, res)
	if resp.Comm == nil || resp.Cycles == nil {
		t.Fatalf("critical-edge response lacks counts or cycles: %s", res.Body)
	}
}

// hugeRegister names a register whose number alone sizes every register
// file and register-indexed table: it parses and verifies, and before the
// door refused it the first run killed the process with "out of memory".
const hugeRegister = "func f(r2)\nentry:\n  r8 = mul r9999999999994, r2\n  ret r8\n"

// TestInlineRegisterBound: inline IR may name registers up to r65536. A
// higher one is refused at the door with a 400 that names the register
// and the limit, and the server goes on answering. A huge queue number
// sizes nothing: the door refuses the communication instruction whatever
// its queue, and the server goes on answering too.
func TestInlineRegisterBound(t *testing.T) {
	s := newServer(t, Options{})
	ctx := context.Background()
	for _, tc := range []struct {
		ir     string
		status int
		says   []string
	}{
		{strings.Replace(hugeRegister, "r9999999999994", "r65536", 1), http.StatusOK, nil},
		{strings.Replace(hugeRegister, "r9999999999994", "r65537", 1), http.StatusBadRequest, []string{"r65537", "r65536"}},
		{hugeRegister, http.StatusBadRequest, []string{"r9999999999994", "r65536"}},
		{"func f(r1)\nentry:\n  produce [q9999999999] = r1\n  ret r1\n", http.StatusBadRequest, []string{"produce [q9999999999] = r1"}},
	} {
		res := s.Do(ctx, &Request{IR: tc.ir, Args: []int64{3}})
		if res.Status != tc.status {
			t.Errorf("%q: status %d, want %d: %s", tc.ir, res.Status, tc.status, res.Body)
		}
		for _, want := range tc.says {
			if !bytes.Contains(res.Body, []byte(want)) {
				t.Errorf("%q: the error does not name %s: %s", tc.ir, want, res.Body)
			}
		}
		req := selfLatchSum
		mustOK(t, s.Do(ctx, &req))
	}
}

// wideTables returns a function of n one-line instructions that each name
// r65536: every register is under maxInlineReg, and each instruction
// position costs a per-point register table 1 025 words.
//
// widestAdmitted is the most lines it may have and pass the door: its
// positions are the lines, the ret and the block's exit.
func wideTables(n int) string {
	var b strings.Builder
	b.WriteString("func f(r1)\nentry:\n")
	for range n {
		b.WriteString("  r65536 = const 1\n")
	}
	b.WriteString("  ret r65536\n")
	return b.String()
}

const widestAdmitted = maxInlinePointSets/(8*1025) - 2

// TestInlinePointSetsBound: an inline function whose per-point register
// tables (dataflow.PointSets, two per COCO plan) would outgrow
// maxInlinePointSets is refused at the door with a 400 that names its
// positions, its highest register, the table's size and the limit, and
// the server goes on answering. The largest such body under maxBody asks
// for gigabytes a table, worked out from the sizing formula, not
// allocated. Every kernel and randprog programs up to size 10 240 pass
// the door.
func TestInlinePointSetsBound(t *testing.T) {
	// The largest body of such lines an HTTP client can post: the JSON
	// encoding spends one byte more a line on its escaped newline.
	largest := wideTables((maxBody - 64) / 20)
	if body, err := json.Marshal(Request{IR: largest}); err != nil || len(body) > maxBody {
		t.Fatalf("the generated request is %d bytes (%v), over the %d-byte limit", len(body), err, maxBody)
	}
	f, err := ir.Parse(largest)
	if err != nil {
		t.Fatal(err)
	}
	size := dataflow.PointSetsBytes(f)
	t.Logf("%d instruction positions naming %v: %d bytes a table", dataflow.Positions(f), f.MaxReg(), size)
	if size < 3<<30 {
		t.Errorf("the largest body sizes a table at %d bytes; want the gigabytes the door is for", size)
	}

	s := newServer(t, Options{})
	ctx := context.Background()
	for _, tc := range []struct {
		ir     string
		status int
	}{
		{wideTables(widestAdmitted), http.StatusOK},
		{wideTables(widestAdmitted + 1), http.StatusBadRequest},
		{largest, http.StatusBadRequest},
	} {
		res := s.Do(ctx, &Request{IR: tc.ir, Args: []int64{3}})
		if res.Status != tc.status {
			t.Errorf("%d bytes of ir: status %d, want %d: %.300s", len(tc.ir), res.Status, tc.status, res.Body)
		}
		if tc.status == http.StatusBadRequest {
			w, err := ir.Parse(tc.ir)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprint(dataflow.Positions(w)), "r65536",
				fmt.Sprint(dataflow.PointSetsBytes(w)), fmt.Sprint(maxInlinePointSets),
			} {
				if !bytes.Contains(res.Body, []byte(want)) {
					t.Errorf("%d bytes of ir: the error does not name %s: %s", len(tc.ir), want, res.Body)
				}
			}
		}
		req := selfLatchSum
		mustOK(t, s.Do(ctx, &req))
	}

	for _, w := range workloads.All() {
		if _, err := (&Request{IR: w.F.String()}).workload(); err != nil {
			t.Errorf("kernel %s as inline ir: %v", w.Name, err)
		}
	}
	for _, size := range []int{160, 640, 2560, 10240} {
		for seed := int64(1); seed <= 4; seed++ {
			_, p := randprog.GenerateSized(seed, size)
			if _, err := (&Request{IR: p.F.String()}).workload(); err != nil {
				t.Errorf("randprog seed %d size %d: %v", seed, size, err)
			}
		}
	}
}

// blockChain returns a function of n blocks in a row, each defining r2
// defs times before it jumps to the next. Labels are short and lines
// unindented, so that many blocks fit under maxBody.
func blockChain(n, defs int) string {
	var b strings.Builder
	b.WriteString("func f(r1)\nentry:\nr2 = const 1\njump b0\n")
	for i := range n {
		b.WriteString("b" + strconv.FormatInt(int64(i), 36) + ":\n")
		b.WriteString(strings.Repeat("r2 = const 1\n", defs))
		b.WriteString("jump b" + strconv.FormatInt(int64(i+1), 36) + "\n")
	}
	b.WriteString("b" + strconv.FormatInt(int64(n), 36) + ":\nret r2\n")
	return b.String()
}

// mostBlocksAdmitted is the longest chain whose reachability table (a
// boolean a pair of blocks, the entry and exit blocks included) passes the
// door.
const mostBlocksAdmitted = 5792 - 2

// TestInlineBlockTablesBound: an inline function whose block reachability
// or reaching definitions, the two tables pdg.Build sizes by the square of
// its blocks, would outgrow maxInlineBlockTables is refused at the door
// with a 400 that names its blocks, the table's size and the limit. It
// computes nothing, and the server goes on answering. The largest such
// body under maxBody asks for tens of gigabytes, worked out from the
// sizing formulas, not allocated.
func TestInlineBlockTablesBound(t *testing.T) {
	// The most blocks a body can hold, each defining r2: the JSON encoding
	// spends a byte more on each escaped newline.
	largest := blockChain(200_000, 1)
	if body, err := json.Marshal(Request{IR: largest}); err != nil || len(body) > maxBody {
		t.Fatalf("the generated request is %d bytes (%v), over the %d-byte limit", len(body), err, maxBody)
	}
	f, err := ir.Parse(largest)
	if err != nil {
		t.Fatal(err)
	}
	reach, defs := analysis.ReachabilityBytes(f), dataflow.ReachingDefsBytes(f)
	t.Logf("%d blocks: %d bytes of reachability, %d of reaching definitions", len(f.Blocks), reach, defs)
	if reach < 40e9 || defs < 20e9 {
		t.Errorf("the largest body sizes the tables at %d and %d bytes; want the 40 GB and 20 GB the door is for", reach, defs)
	}

	s := newServer(t, Options{})
	ctx := context.Background()
	for _, tc := range []struct {
		ir     string
		status int
		table  func(*ir.Function) int64
	}{
		{blockChain(mostBlocksAdmitted, 0), http.StatusOK, nil},
		{blockChain(mostBlocksAdmitted+1, 0), http.StatusBadRequest, analysis.ReachabilityBytes},
		// Fewer blocks, three definitions each: only the reaching
		// definitions are over.
		{blockChain(5000, 3), http.StatusBadRequest, dataflow.ReachingDefsBytes},
		{largest, http.StatusBadRequest, analysis.ReachabilityBytes},
	} {
		compute := s.StatsSnapshot().Compute
		res := s.Do(ctx, &Request{IR: tc.ir, Args: []int64{3}})
		if res.Status != tc.status {
			t.Errorf("%d bytes of ir: status %d, want %d: %.300s", len(tc.ir), res.Status, tc.status, res.Body)
		}
		if tc.status == http.StatusBadRequest {
			if n := s.StatsSnapshot().Compute - compute; n != 0 {
				t.Errorf("%d bytes of ir: a refused body computed %d times", len(tc.ir), n)
			}
			w, err := ir.Parse(tc.ir)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf("%d blocks", len(w.Blocks)), fmt.Sprint(tc.table(w)), fmt.Sprint(maxInlineBlockTables),
			} {
				if !bytes.Contains(res.Body, []byte(want)) {
					t.Errorf("%d bytes of ir: the error does not name %s: %s", len(tc.ir), want, res.Body)
				}
			}
		}
		req := selfLatchSum
		mustOK(t, s.Do(ctx, &req))
	}
}

// inlineComm holds one communication instruction of each kind: source a
// client wrote with a produce already in it. Before the door refused it
// the profile failed with "unexpected opcode produce", answered 500.
const inlineComm = "func f(r1)\nentry:\n  produce [q0] = r1\n  r2 = consume [q0]\n" +
	"  produce.sync [q1]\n  consume.sync [q1]\n  ret r2\n"

// TestInlineCommRefused: inline IR holding a produce, consume or their
// .sync forms is refused at the door with a 400 that names the
// instruction, and the server answers the next request.
func TestInlineCommRefused(t *testing.T) {
	s := newServer(t, Options{})
	ctx := context.Background()
	lines := strings.Split(strings.TrimSpace(inlineComm), "\n")
	for i, instr := range lines[2 : len(lines)-1] {
		// Keep the instructions from instr on: the first is the one named.
		text := lines[0] + "\n" + lines[1] + "\n" + strings.Join(lines[2+i:], "\n") + "\n"
		res := s.Do(ctx, &Request{IR: text, Args: []int64{3}})
		if res.Status != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400: %s", text, res.Status, res.Body)
		}
		if want := strings.TrimSpace(instr); !bytes.Contains(res.Body, []byte(want)) {
			t.Errorf("%q: the error does not name %q: %s", text, want, res.Body)
		}
		req := selfLatchSum
		mustOK(t, s.Do(ctx, &req))
	}
}

// TestBudgetClampSharesKey: requested budgets past the server cap clamp
// to the cap before keying, so an over-ask and an exact-ask share one
// cache entry and one computation.
func TestBudgetClampSharesKey(t *testing.T) {
	max := budget.Budget{ProfileSteps: 50_000_000, MeasureSteps: 50_000_000, SimCycles: 100_000_000}
	s := newServer(t, Options{MaxBudget: max, Degrade: true})
	ctx := context.Background()

	over := &Request{Workload: "ks", Budget: Budget{MeasureSteps: 999_999_999_999}}
	exact := &Request{Workload: "ks", Budget: Budget{
		ProfileSteps: max.ProfileSteps, MeasureSteps: max.MeasureSteps, SimCycles: max.SimCycles,
	}}
	r1 := s.Do(ctx, over)
	mustOK(t, r1)
	r2 := s.Do(ctx, exact)
	mustOK(t, r2)
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("clamped requests produced different bytes")
	}
	if st := s.StatsSnapshot(); st.Compute != 1 {
		t.Fatalf("compute = %d, want 1 (clamped budgets share a key)", st.Compute)
	}
}

// TestHTTPEndpoints drives the real handler: schedule with source
// headers, batch ordering with per-item statuses, metrics, names, health,
// and bad-JSON handling.
func TestHTTPEndpoints(t *testing.T) {
	s := newServer(t, Options{Degrade: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		res, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(res.Body)
		return res, buf.Bytes()
	}
	get := func(path string) []byte {
		t.Helper()
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, res.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(res.Body)
		return buf.Bytes()
	}

	res, cold := post("/v1/schedule", `{"workload":"adpcmdec","partitioner":"dswp"}`)
	if res.StatusCode != http.StatusOK || res.Header.Get("X-Gmtserve-Source") != "cold" {
		t.Fatalf("schedule: %d source=%q: %s", res.StatusCode, res.Header.Get("X-Gmtserve-Source"), cold)
	}
	res, warm := post("/v1/schedule", `{"workload":"adpcmdec","partitioner":"dswp"}`)
	if res.Header.Get("X-Gmtserve-Source") != "warm" || !bytes.Equal(cold, warm) {
		t.Fatalf("schedule warm: source=%q, equal=%v", res.Header.Get("X-Gmtserve-Source"), bytes.Equal(cold, warm))
	}

	res, body := post("/v1/batch", `{"requests":[
		{"workload":"adpcmdec","partitioner":"dswp"},
		{"workload":"nope"},
		{"workload":"adpcmdec","partitioner":"dswp"},
		{"workload":"adpcmdec","partitioner":"gremio"}
	]}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", res.StatusCode, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != 4 {
		t.Fatalf("batch responses = %d, want 4", len(batch.Responses))
	}
	if batch.Responses[0].Status != 200 || batch.Responses[1].Status != 400 ||
		batch.Responses[2].Status != 200 || batch.Responses[3].Status != 200 {
		t.Fatalf("batch statuses = %+v", batch.Responses)
	}
	if !bytes.Equal(batch.Responses[0].Body, batch.Responses[2].Body) {
		t.Fatal("identical batch items returned different bytes")
	}
	if !bytes.Equal(batch.Responses[0].Body, cold) {
		t.Fatal("batch bytes differ from schedule bytes for the same request")
	}
	// The other partitioner beside it in one batch, on a server that would
	// degrade rather than fail: still that partitioner's own answer.
	gremio := &Request{Workload: "adpcmdec", Partitioner: "gremio"}
	if got, want := batch.Responses[3].Body, freshBody(t, gremio); !bytes.Equal(got, want) {
		t.Fatalf("mixed-partitioner batch item differs from a fresh server's:\n%s\n%s", got, want)
	}

	var metrics struct {
		Metrics []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(get("/v1/metrics"), &metrics); err != nil {
		t.Fatal(err)
	}
	compute := int64(-1)
	for _, m := range metrics.Metrics {
		if m.Name == "serve.compute" {
			compute = m.Value
		}
	}
	if compute != 2 {
		t.Fatalf("/v1/metrics serve.compute = %d, want 2 (-1: missing)", compute)
	}
	if r, err := http.Get(ts.URL + "/v1/stats"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: %v (%v), want 404: the registry is the one account", r.StatusCode, err)
	} else {
		r.Body.Close()
	}
	var names map[string][]string
	if err := json.Unmarshal(get("/v1/workloads"), &names); err != nil {
		t.Fatal(err)
	}
	if len(names["workloads"]) == 0 {
		t.Fatal("no workloads listed")
	}
	if err := json.Unmarshal(get("/v1/partitioners"), &names); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names["partitioners"]) != "[gremio dswp]" {
		t.Fatalf("partitioners = %v", names["partitioners"])
	}
	get("/v1/healthz")

	res, body = post("/v1/schedule", `{"workload":`)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d: %s", res.StatusCode, body)
	}

	// A batch at the limit is answered item by item; one request over it
	// is refused whole, before any item runs.
	res, body = post("/v1/batch", `{"requests":[{}`+strings.Repeat(`,{}`, maxBatch-1)+`]}`)
	if err := json.Unmarshal(body, &batch); err != nil || res.StatusCode != http.StatusOK || len(batch.Responses) != maxBatch {
		t.Fatalf("full batch: %d, %d responses (%v)", res.StatusCode, len(batch.Responses), err)
	}
	before := s.StatsSnapshot().Requests
	res, body = post("/v1/batch", `{"requests":[{}`+strings.Repeat(`,{}`, maxBatch)+`]}`)
	if res.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "limit of 1024") {
		t.Fatalf("oversize batch: %d: %s", res.StatusCode, body)
	}
	if n := s.StatsSnapshot().Requests - before; n != 0 {
		t.Fatalf("oversize batch ran %d items", n)
	}
}

// TestOversizeBodyIs413: a body over maxBody is the client's to shrink,
// not malformed JSON — 413 with the usual JSON error shape, on both
// endpoints that read a body.
func TestOversizeBodyIs413(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Valid JSON all the way, so only the size can be what is wrong.
	pad := strings.Repeat(" ", maxBody)
	for path, body := range map[string]string{
		"/v1/schedule": `{"workload":"ks"` + pad + `}`,
		"/v1/batch":    `{"requests":[]` + pad + `}`,
	} {
		res, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		err = json.NewDecoder(res.Body).Decode(&e)
		res.Body.Close()
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, res.StatusCode)
		}
		if ct := res.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", path, ct)
		}
		if err != nil || !strings.HasPrefix(e.Error, "decoding request: ") || !strings.Contains(e.Error, "too large") {
			t.Errorf("%s: error body %+v (decode: %v)", path, e, err)
		}
	}
	if n := s.StatsSnapshot().Requests; n != 0 {
		t.Errorf("an oversize body reached the request path: requests = %d", n)
	}
}

// TestShortBodyAllocatesWhatArrives: a request that declares an 8 MiB body
// and sends 10 bytes gets a 400, and the server allocates for the bytes
// that came, not for the length declared: a declared length sizes the
// read buffer only up to maxBodyPrealloc. The server answers the next
// request.
func TestShortBodyAllocatesWhatArrives(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /v1/schedule HTTP/1.1\r\nHost: gmtserve\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n%s", 8<<20, `{"workload`)
	conn.(*net.TCPConn).CloseWrite() // the other 8 388 598 bytes never come
	res, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	err = json.NewDecoder(res.Body).Decode(&e)
	res.Body.Close()
	runtime.ReadMemStats(&after)
	if res.StatusCode != http.StatusBadRequest || err != nil || !strings.HasPrefix(e.Error, "decoding request: ") {
		t.Errorf("a short body: status %d, error body %+v (decode: %v); want 400 decoding request", res.StatusCode, e, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("a 10-byte body that declared 8 MiB cost the server %d bytes", n)
	}

	body, err := json.Marshal(selfLatchSum)
	if err != nil {
		t.Fatal(err)
	}
	next, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	next.Body.Close()
	if next.StatusCode != http.StatusOK {
		t.Errorf("the request after the short body: status %d, want 200", next.StatusCode)
	}
}

// TestColdInlineAllocation pins the cold compile path's tables: every
// table a cold inline request builds (the PDG with its chains, COCO's flow
// network, both generated programs) is allocated once at its final size.
// Twenty-four distinct size-160 random programs go to a fresh server each
// pass, as in the benchmark's cold_inline, through Do without the HTTP
// round trip. A request allocated 390 KB when those tables grew by append
// from empty; it allocates 304 KB (308 KB under -race).
func TestColdInlineAllocation(t *testing.T) {
	const programs = 24
	reqs := make([]*Request, programs)
	for i := range reqs {
		axes, p := randprog.GenerateSized(700000+int64(i), 160)
		reqs[i] = &Request{IR: p.F.String(), Name: "rp", Args: p.Args, Mem: p.Mem, Partitioner: "dswp"}
		if axes.Shape == randprog.ShapeStraight {
			reqs[i].Partitioner = "gremio"
		}
		for _, o := range p.Objects {
			reqs[i].Objects = append(reqs[i].Objects, MemObject{Name: o.Name, Base: o.Base, Size: o.Size})
		}
	}
	ctx := context.Background()
	var perCall uint64 = 1 << 62
	for pass := 0; pass < 3; pass++ { // the least of three passes
		s := newServer(t, Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, req := range reqs {
			if res := s.Do(ctx, req); res.Status != http.StatusOK || res.Source != "cold" {
				t.Fatalf("status %d, source %q: %s", res.Status, res.Source, res.Body)
			}
		}
		runtime.ReadMemStats(&after)
		perCall = min(perCall, (after.TotalAlloc-before.TotalAlloc)/programs)
	}
	const limit = 320_000
	t.Logf("a cold inline request allocates %d bytes (limit %d)", perCall, limit)
	if perCall >= limit {
		t.Errorf("a cold inline request allocates %d bytes, want under %d", perCall, limit)
	}
}

// TestColdKernelAllocation pins a cold named-kernel request with the
// simulator on: its computation's runs — the train profile, the reference
// run, the single-threaded and both multi-threaded simulations — copy
// the kernel's shared inputs into one working image of the computation's
// engine, so besides the compile tables and the simulations' cache arrays
// a request allocates about one image. Each pass sends each kernel to a
// fresh server; the least of three passes counts, so the process's one
// build of the kernel's inputs falls outside it. A ks request (13 KB
// images) allocates 264 KB, and an mpeg2enc request (1 MB images) 1.57 MB;
// they allocated 319 KB and 4.74 MB when each run built its own image.
func TestColdKernelAllocation(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		kernel string
		limit  uint64 // bytes
	}{
		{"ks", 290_000},
		{"mpeg2enc", 1_700_000},
	} {
		t.Run(tc.kernel, func(t *testing.T) {
			req := &Request{Workload: tc.kernel, Partitioner: "dswp", Sim: true}
			var perCall uint64 = 1 << 62
			for pass := 0; pass < 3; pass++ {
				s := newServer(t, Options{})
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res := s.Do(ctx, req)
				runtime.ReadMemStats(&after)
				if res.Status != http.StatusOK || res.Source != "cold" {
					t.Fatalf("status %d, source %q: %s", res.Status, res.Source, res.Body)
				}
				perCall = min(perCall, after.TotalAlloc-before.TotalAlloc)
			}
			if raceEnabled {
				t.Skipf("race detector on: a cold %s request allocated %d bytes, bound not checked", tc.kernel, perCall)
			}
			t.Logf("a cold %s request allocates %d bytes (limit %d)", tc.kernel, perCall, tc.limit)
			if perCall >= tc.limit {
				t.Errorf("a cold %s request allocates %d bytes, want under %d", tc.kernel, perCall, tc.limit)
			}
		})
	}
}

// TestWarmRequestAllocation pins the warm path. Once mpeg2enc (the
// kernel with the largest images) has been served, a repeat takes the
// kernels table's value, built once per process, reads the fingerprint
// memoized on it and reads the cache: about 4 KiB in 30 allocations (31
// under -race). It
// rebuilt the kernel's IR on every call before (13 KiB, 232
// allocations), and before that it rehashed the two memory images too
// (over 1 MiB). A repeated inline program still parses its text and
// prints it again for its key: about 51 KiB in 190 allocations for a
// size-160 random program, 104 KiB when the printer used fmt and the
// parser a token slice per line.
func TestWarmRequestAllocation(t *testing.T) {
	axes, p := randprog.GenerateSized(600000, 160)
	inline := &Request{IR: p.F.String(), Name: "rp", Args: p.Args, Mem: p.Mem, Partitioner: "dswp"}
	if axes.Shape == randprog.ShapeStraight {
		inline.Partitioner = "gremio"
	}
	for _, o := range p.Objects {
		inline.Objects = append(inline.Objects, MemObject{Name: o.Name, Base: o.Base, Size: o.Size})
	}
	for _, tc := range []struct {
		name    string
		req     *Request
		limit   uint64 // bytes
		mallocs uint64
	}{
		{"mpeg2enc", &Request{Workload: "mpeg2enc", Partitioner: "dswp"}, 8 << 10, 32},
		{"inline", inline, 72 << 10, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, Options{})
			ctx := context.Background()
			cold := s.Do(ctx, tc.req)
			mustOK(t, cold)

			const calls = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if res := s.Do(ctx, tc.req); res.Source != "warm" || !bytes.Equal(res.Body, cold.Body) {
					t.Fatalf("warm call %d: source %q, same bytes %v", i, res.Source, bytes.Equal(res.Body, cold.Body))
				}
			}
			runtime.ReadMemStats(&after)
			t.Logf("a warm %s request allocates %d bytes in %d allocations", tc.name,
				(after.TotalAlloc-before.TotalAlloc)/calls, (after.Mallocs-before.Mallocs)/calls)
			if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= tc.limit {
				t.Errorf("a warm %s request allocates %d bytes, want under %d KiB", tc.name, perCall, tc.limit>>10)
			}
			if perCall := (after.Mallocs - before.Mallocs) / calls; perCall >= tc.mallocs {
				t.Errorf("a warm %s request allocates %d times, want under %d", tc.name, perCall, tc.mallocs)
			}
			if st := s.StatsSnapshot(); st.Compute != 1 || st.CacheHitMem != calls {
				t.Errorf("compute = %d, memory hits = %d after 1 cold + %d warm requests, want 1 and one hit per warm request",
					st.Compute, st.CacheHitMem, calls)
			}
		})
	}
}

// TestCorruptDiskEntryRecomputes: a cache record whose bytes no longer
// match its checksum must be treated as a miss — the restarted server
// quarantines it, recomputes and rewrites it, and the corrupt bytes are
// never served.
func TestCorruptDiskEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := &Request{Workload: "adpcmdec"}

	s1 := newServer(t, Options{CacheDir: dir, Degrade: true})
	good := s1.Do(ctx, req)
	mustOK(t, good)

	corruptCacheRecords(t, dir)

	s2 := newServer(t, Options{CacheDir: dir, Degrade: true})
	res := s2.Do(ctx, req)
	mustOK(t, res)
	if res.Source != "cold" {
		t.Fatalf("corrupt entry was served: source = %q", res.Source)
	}
	if !bytes.Equal(good.Body, res.Body) {
		t.Fatal("recomputed bytes differ")
	}
	if corrupt, compute := counter(s2, "serve.cache.corrupt"), s2.StatsSnapshot().Compute; corrupt == 0 || compute != 1 {
		t.Fatalf("corrupt = %d compute = %d, want >0 / 1", corrupt, compute)
	}
}

// corruptCacheRecords flips the last payload byte of every record in the
// cache directory's log, simulating disk damage the checksums must catch.
func corruptCacheRecords(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "entries.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	magic := []byte("gmtcache1 ")
	starts := []int{}
	for off := 0; ; {
		i := bytes.Index(raw[off:], magic)
		if i < 0 {
			break
		}
		starts = append(starts, off+i)
		off += i + len(magic)
	}
	if len(starts) == 0 {
		t.Fatal("no cache records found to corrupt")
	}
	for i := range starts {
		end := len(raw)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		raw[end-1] ^= 0x20
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
