package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	csvstore "gradoop/internal/storage/csv"
)

// pinnedSF is the scale factor of every measured run. The pins below hold
// at this scale only; tests run smaller graphs and are not pinned.
const pinnedSF = 3.0

// pin records what a dataset seed must generate, so the yardstick cannot
// move silently when internal/ldbc or the CSV writer changes. Element ids
// come from a process-wide counter, so the bytes are those of the first
// dataset a process generates - which the benchmark's always is.
type pin struct {
	vertices, edges int
	csvSHA256       string
}

// pins holds the two datasets of the benchmark: 2017 is the one every run
// uses unless told otherwise, 2018 is the unseen one a later claim must
// also hold on.
var pins = map[int64]pin{
	2017: {31558, 100292, "a581ba60de9a56202b608a96ee46aabe705f6328eceafc96d3e02ae398d50dcc"},
	2018: {31558, 100112, "afe6918a6fb25ccd952f75990876d5a3d4b2ca784ce3b648237c7e0c4fd2e492"},
}

// dataset is the generated input: the CSV directory the system under test
// loads, and the in-memory graph the references are computed on.
type dataset struct {
	Seed     int64   `json:"seed"`
	SF       float64 `json:"sf"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	CSVBytes int64   `json:"csv_bytes"`
	CSVHash  string  `json:"csv_sha256"`
	Pinned   bool    `json:"pinned"`
	// Names maps rare/medium/common to the first name of that selectivity.
	Names map[string]string `json:"first_names"`

	dir   string
	graph *epgm.LogicalGraph
}

// makeDataset generates the graph for (seed, sf), writes it as Gradoop CSV
// into dir and checks it against its pin.
func makeDataset(dir string, seed int64, sf float64) (*dataset, error) {
	// One partition: the references are computed on this graph through the
	// library path, deliberately not the partitioning the server runs with.
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	gen := ldbc.Generate(env, ldbc.Config{ScaleFactor: sf, Seed: seed})
	if err := csvstore.WriteLogicalGraph(gen.Graph, dir); err != nil {
		return nil, fmt.Errorf("write dataset: %w", err)
	}
	sum, size, err := hashDir(dir)
	if err != nil {
		return nil, err
	}
	common, medium, rare := gen.FirstNamesBySelectivity()
	d := &dataset{
		Seed: seed, SF: sf,
		Vertices: gen.VertexCount(), Edges: gen.EdgeCount,
		CSVBytes: size, CSVHash: sum,
		Names: map[string]string{"rare": rare, "medium": medium, "common": common},
		dir:   dir, graph: gen.Graph,
	}
	if p, ok := pins[seed]; ok && sf == pinnedSF {
		if d.Vertices != p.vertices || d.Edges != p.edges || d.CSVHash != p.csvSHA256 {
			return nil, fmt.Errorf("dataset seed %d at SF %g is no longer the pinned input: got %d vertices, %d edges, sha256 %s; pinned %d, %d, %s (internal/ldbc or the CSV writer changed: re-pin in its own change and re-measure the baseline)",
				seed, sf, d.Vertices, d.Edges, d.CSVHash, p.vertices, p.edges, p.csvSHA256)
		}
		d.Pinned = true
	}
	return d, nil
}

// hashDir hashes every file of dir, in name order, with name and length
// framing, and returns the digest and the total size.
func hashDir(dir string) (string, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	var total int64
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", 0, err
		}
		var frame [8]byte
		binary.BigEndian.PutUint64(frame[:], uint64(len(b)))
		h.Write([]byte(name))
		h.Write(frame[:])
		h.Write(b)
		total += int64(len(b))
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}
