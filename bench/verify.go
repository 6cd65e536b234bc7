package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/randprog"
	"repro/internal/serve"
	"repro/internal/workloads"
)

//go:embed testdata/expected.json
var expectedJSON []byte

//go:embed testdata/randprog_manifest.json
var manifestJSON []byte

// manifestPrograms is how many programs of the default-seed inline corpus
// the committed manifest pins.
const manifestPrograms = 16

// goldCell is every deterministic number of one (kernel, partitioner)
// cell: what a response carries plus the static program sizes only the
// staged path sees.
type goldCell struct {
	Naive       interp.CommStats `json:"naive"`
	Coco        interp.CommStats `json:"coco"`
	STCycles    int64            `json:"st_cycles"`
	NaiveCycles int64            `json:"naive_cycles"`
	CocoCycles  int64            `json:"coco_cycles"`
	Static      cellStatic       `json:"static"`
}

// goldens is testdata/expected.json, keyed "ks/gremio".
type goldens struct {
	Cells map[string]goldCell `json:"cells"`
}

func loadGoldens(data []byte) (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &g, nil
}

func cellKey(workload, partitioner string) string {
	return workload + "/" + strings.ToLower(partitioner)
}

// checkBody verifies a kernel response against its cell: the comm stats
// always, the cycle counts when the request simulated.
func (g *goldens) checkBody(label string, body []byte) bool {
	var r serve.Response
	if json.Unmarshal(body, &r) != nil || r.Comm == nil {
		return false
	}
	cell, ok := g.Cells[cellKey(r.Workload, r.Partitioner)]
	if !ok || !strings.HasPrefix(label, cellKey(r.Workload, r.Partitioner)) {
		return false
	}
	if r.Comm.Naive != cell.Naive || r.Comm.Coco != cell.Coco || r.Comm.Fallback != "" {
		return false
	}
	if strings.HasSuffix(label, "/sim") != (r.Cycles != nil) {
		return false
	}
	return r.Cycles == nil || (r.Cycles.SingleThreaded == cell.STCycles &&
		r.Cycles.Naive == cell.NaiveCycles && r.Cycles.Coco == cell.CocoCycles && r.Cycles.Fallback == "")
}

// checkRows verifies a figures batch: every row against its cell.
func (g *goldens) checkRows(comm []exp.CommRow, speed []exp.SpeedupRow) bool {
	if len(comm) == 0 || len(comm) != len(speed) {
		return false
	}
	for _, r := range comm {
		cell, ok := g.Cells[cellKey(r.Workload, r.Partitioner)]
		if !ok || r.Naive != cell.Naive || r.Coco != cell.Coco || r.Fallback != "" {
			return false
		}
	}
	for _, r := range speed {
		cell, ok := g.Cells[cellKey(r.Workload, r.Partitioner)]
		if !ok || r.STCycles != cell.STCycles || r.NaiveCycles != cell.NaiveCycles ||
			r.CocoCycles != cell.CocoCycles || r.Fallback != "" {
			return false
		}
	}
	return true
}

// checkStatic verifies the static program sizes the staged path produced.
func (g *goldens) checkStatic(static map[string]cellStatic) bool {
	for key, cs := range static {
		fp, part, _ := strings.Cut(key, "/")
		name, ok := kernelNames()[fp]
		if !ok {
			continue // an inline program: no golden
		}
		if cell, ok := g.Cells[cellKey(name, part)]; !ok || cell.Static != cs {
			return false
		}
	}
	return true
}

// kernelNames maps content fingerprint → kernel name. Hashing every
// kernel's input images takes ~70 ms, so once per process.
var kernelNames = sync.OnceValue(func() map[string]string {
	m := map[string]string{}
	for _, w := range workloads.All() {
		m[w.Fingerprint()] = w.Name
	}
	return m
})

// checkInlineBody verifies what can be known of an inline reply without a
// golden: it is a success body for this program and partitioner, with comm
// stats and (sim off) no cycles. The exact bytes are checked against the
// staged path's independent recomputation in the traced run, and against
// the first pass's reply in every later pass.
func checkInlineBody(q *request, body []byte) bool {
	var r serve.Response
	if json.Unmarshal(body, &r) != nil || r.Comm == nil || r.Cycles != nil {
		return false
	}
	return r.Schema == serve.SchemaVersion && r.Workload == q.Req.Name &&
		strings.EqualFold(r.Partitioner, q.Req.Partitioner) && r.Comm.Naive.Total() > 0
}

// checkManifest regenerates every program of the committed manifest; a
// fingerprint that moved means randprog no longer generates the corpus the
// baselines were measured on, and no number of this run compares to them.
func checkManifest(data []byte) error {
	m, err := randprog.ParseManifest(data)
	if err != nil {
		return err
	}
	for i := range m.Programs {
		if _, err := m.Regenerate(i); err != nil {
			return err
		}
	}
	return nil
}

// updateGoldens recomputes both testdata files through the staged path
// (every run then checks the server and the engine against them).
func updateGoldens(dir string) error {
	t := newTracer()
	e := newStagedEngine(t)
	g := goldens{Cells: map[string]goldCell{}}
	ws := workloads.All() // once: the engine's artifacts hold these functions' instructions
	for _, part := range exp.Partitioners() {
		for _, w := range ws {
			var cell goldCell
			var err error
			if cell.Naive, cell.Coco, err = e.comm(0, 0, w, part); err != nil {
				return err
			}
			if cell.STCycles, cell.NaiveCycles, cell.CocoCycles, err = e.simulate(0, 0, w, part); err != nil {
				return err
			}
			cell.Static = e.static[w.Fingerprint()+"/"+part.Name()]
			g.Cells[cellKey(w.Name, part.Name())] = cell
		}
	}
	out, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "expected.json"), append(out, '\n'), 0o644); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := corpusManifest(DefaultSeed, manifestPrograms).WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "randprog_manifest.json"), buf.Bytes(), 0o644)
}
