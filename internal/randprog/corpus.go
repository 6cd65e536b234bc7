package randprog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
)

// Axes is one point in the corpus parameter space: the seeded,
// reproducible coordinates a program is generated at. Axes (not Options)
// is what the corpus manifest records — it is the compact, versionable
// description of *why* a program looks the way it does.
type Axes struct {
	// Size is the target static instruction count (the size axis).
	Size int `json:"size"`
	// Shape is the CFG shape profile.
	Shape Shape `json:"shape"`
	// AliasDensity is the approximate percentage of memory statements.
	AliasDensity int `json:"alias_density"`
	// LiveOuts is the exact live-out register count.
	LiveOuts int `json:"live_outs"`
	// QueuePressure is the dependence-chain skew percentage.
	QueuePressure int `json:"queue_pressure"`
}

// String renders the axes compactly for reports and cell labels.
func (a Axes) String() string {
	return fmt.Sprintf("size=%d shape=%s alias=%d outs=%d qp=%d",
		a.Size, a.Shape, a.AliasDensity, a.LiveOuts, a.QueuePressure)
}

// Options maps the axes onto generator options. Structural bounds scale
// with the size axis; array count falls as aliasing density rises, so a
// high-density program funnels all its memory traffic through one or two
// arrays (maximal collisions) while a low-density one spreads it thin.
func (a Axes) Options() Options {
	depth := 2
	switch {
	case a.Shape == ShapeStraight:
		depth = 0
	case a.Size >= 640:
		depth = 4
	case a.Size >= 160:
		depth = 3
	}
	stmts := clamp(4+a.Size/64, 4, 16)
	arrays := clamp(4-a.AliasDensity/25, 1, MaxArraysLimit)
	return Options{
		MaxDepth:      depth,
		MaxStmts:      stmts,
		Arrays:        arrays,
		TargetInstrs:  a.Size,
		Shape:         a.Shape,
		AliasDensity:  a.AliasDensity,
		LiveOuts:      a.LiveOuts,
		QueuePressure: a.QueuePressure,
	}
}

// Axis value pools, spanning the ranges the stress sweep covers. Size
// values run from tiny (10 instructions) to the generation ceiling.
var (
	sizePool     = []int{10, 40, 160, 640, 2560, 5000}
	shapePool    = Shapes()
	aliasPool    = []int{5, 20, 45, 70}
	liveOutPool  = []int{1, 2, 3, 6, 10}
	pressurePool = []int{10, 35, 60, 85}
)

// AxesForSeed draws one reproducible point from the axis pools: a pure
// function of the seed, independent of math/rand internals, so manifests
// stay stable across Go releases. maxSize (0 = unlimited) caps the size
// axis — short/CI modes use it to keep programs small.
func AxesForSeed(seed int64, maxSize int) Axes {
	sizes := sizePool
	if maxSize > 0 {
		sizes = sizes[:0:0]
		for _, s := range sizePool {
			if s <= maxSize {
				sizes = append(sizes, s)
			}
		}
		if len(sizes) == 0 {
			sizes = []int{maxSize}
		}
	}
	h := mix(uint64(seed) ^ 0x636f7270757361) // "corpusa"
	a := Axes{Size: sizes[h%uint64(len(sizes))]}
	h = mix(h)
	a.Shape = shapePool[h%uint64(len(shapePool))]
	h = mix(h)
	a.AliasDensity = aliasPool[h%uint64(len(aliasPool))]
	h = mix(h)
	a.LiveOuts = liveOutPool[h%uint64(len(liveOutPool))]
	h = mix(h)
	a.QueuePressure = pressurePool[h%uint64(len(pressurePool))]
	return a
}

// mix advances the SplitMix64 generator — tiny, seedable, and
// deterministic across platforms and Go versions.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fingerprint is a stable content hash of everything that determines the
// program's behavior: the IR text, the arguments, the initial memory, and
// the object table. Two runs that generate the same fingerprint for a seed
// generated the same test case, byte for byte.
func (p *Program) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, p.F.String())
	fmt.Fprintf(h, "\nargs %v\nmem %v\n", p.Args, p.Mem)
	for _, o := range p.Objects {
		fmt.Fprintf(h, "object %s %d %d\n", o.Name, o.Base, o.Size)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ManifestVersion is bumped whenever generation changes in a way that
// alters the program a (seed, axes) pair produces; a manifest with a
// different version cannot be reproduced by this binary.
const ManifestVersion = 1

// Entry describes one corpus program: the seed and axes that regenerate
// it, and the fingerprint that proves the regeneration matched.
type Entry struct {
	Seed        int64  `json:"seed"`
	Axes        Axes   `json:"axes"`
	Fingerprint string `json:"fingerprint"`
	Instrs      int    `json:"instrs"`
	Blocks      int    `json:"blocks"`
}

// Manifest is the corpus.json format: the reproducible description of a
// generated corpus. Materializing the manifest and regenerating from it
// yield identical programs or a loud fingerprint mismatch.
type Manifest struct {
	Version int `json:"version"`
	// Seed is the corpus base seed; program i uses Seed + i.
	Seed int64 `json:"seed"`
	// MaxSize is the size-axis cap the corpus was drawn under (0 = none).
	MaxSize  int     `json:"max_size,omitempty"`
	Programs []Entry `json:"programs"`
}

// GenerateEntry deterministically builds corpus program for one seed under
// a size cap, returning its manifest entry alongside the program.
func GenerateEntry(seed int64, maxSize int) (Entry, *Program) {
	axes := AxesForSeed(seed, maxSize)
	p := Generate(rand.New(rand.NewSource(seed)), axes.Options())
	return Entry{
		Seed:        seed,
		Axes:        axes,
		Fingerprint: p.Fingerprint(),
		Instrs:      p.F.NumInstrs(),
		Blocks:      len(p.F.Blocks),
	}, p
}

// GenerateSized builds the program of one seed at a fixed size: every axis
// but the size follows the seed. A corpus of equal-sized programs isolates
// what the other axes cost (the benchmark's inline corpus draws its
// programs this way).
func GenerateSized(seed int64, size int) (Axes, *Program) {
	axes := AxesForSeed(seed, 0)
	axes.Size = size
	return axes, Generate(rand.New(rand.NewSource(seed)), axes.Options())
}

// BuildManifest generates the n-program corpus rooted at seed and returns
// its manifest (programs themselves are regenerated on demand from the
// entries — the corpus streams, it is never held in memory at once).
func BuildManifest(seed int64, n, maxSize int) *Manifest {
	m := &Manifest{Version: ManifestVersion, Seed: seed, MaxSize: maxSize}
	for i := 0; i < n; i++ {
		e, _ := GenerateEntry(seed+int64(i), maxSize)
		m.Programs = append(m.Programs, e)
	}
	return m
}

// WriteJSON renders the manifest with stable key order and indentation:
// the same corpus always produces byte-identical corpus.json.
func (m *Manifest) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ParseManifest parses a corpus.json. A version this binary cannot
// reproduce is a hard error, not a silent regeneration mismatch.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("randprog: manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("randprog: manifest version %d, this binary generates version %d", m.Version, ManifestVersion)
	}
	return &m, nil
}

// Regenerate rebuilds the program for a manifest entry and verifies its
// fingerprint, guaranteeing the caller runs exactly the corpus the
// manifest describes.
func (m *Manifest) Regenerate(i int) (*Program, error) {
	if i < 0 || i >= len(m.Programs) {
		return nil, fmt.Errorf("randprog: manifest has no program %d", i)
	}
	e := m.Programs[i]
	axes := e.Axes
	p := Generate(rand.New(rand.NewSource(e.Seed)), axes.Options())
	if fp := p.Fingerprint(); fp != e.Fingerprint {
		return nil, fmt.Errorf("randprog: program %d (seed %d): fingerprint %s, manifest says %s — generator drifted from the manifest",
			i, e.Seed, fp, e.Fingerprint)
	}
	return p, nil
}
