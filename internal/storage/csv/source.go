package csv

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

// ReadLogicalGraph loads a dataset directory written by WriteLogicalGraph
// into a logical graph backed by env. The id allocator is advanced past the
// loaded ids so later NewID calls cannot collide.
func ReadLogicalGraph(env *dataflow.Env, dir string) (*epgm.LogicalGraph, error) {
	meta, err := readMetadata(filepath.Join(dir, MetadataFile))
	if err != nil {
		return nil, err
	}

	var head epgm.GraphHead
	headSeen := false
	if err := readLines(filepath.Join(dir, GraphsFile), func(line string) error {
		parts := splitUnescaped(line, ';')
		if len(parts) != 3 {
			return fmt.Errorf("csv: malformed graph line %q", line)
		}
		id, err := parseID(parts[0])
		if err != nil {
			return err
		}
		label, err := unescape(parts[1])
		if err != nil {
			return err
		}
		props, err := meta.decodeProps("g", label, parts[2])
		if err != nil {
			return err
		}
		if !headSeen {
			head = epgm.GraphHead{ID: id, Label: label, Properties: props}
			headSeen = true
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if !headSeen {
		return nil, fmt.Errorf("csv: %s contains no graph head", dir)
	}

	var maxID epgm.ID
	bump := func(id epgm.ID) {
		if id > maxID {
			maxID = id
		}
	}
	bump(head.ID)

	// One string per distinct label. unescape hands back a substring of the
	// scanned line when nothing in it is escaped, and an element whose label
	// is that substring keeps its whole line reachable for as long as it lives.
	labels := map[string]string{}
	intern := func(label string) string {
		if l, ok := labels[label]; ok {
			return l
		}
		label = strings.Clone(label)
		labels[label] = label
		return label
	}

	var vertices []epgm.Vertex
	if err := readLines(filepath.Join(dir, VerticesFile), func(line string) error {
		parts := splitUnescaped(line, ';')
		if len(parts) != 4 {
			return fmt.Errorf("csv: malformed vertex line %q", line)
		}
		id, err := parseID(parts[0])
		if err != nil {
			return err
		}
		graphs, err := parseIDSet(parts[1])
		if err != nil {
			return err
		}
		label, err := unescape(parts[2])
		if err != nil {
			return err
		}
		props, err := meta.decodeProps("v", label, parts[3])
		if err != nil {
			return err
		}
		bump(id)
		vertices = append(vertices, epgm.Vertex{ID: id, Label: intern(label), Properties: props, GraphIDs: graphs})
		return nil
	}); err != nil {
		return nil, err
	}

	var edges []epgm.Edge
	if err := readLines(filepath.Join(dir, EdgesFile), func(line string) error {
		parts := splitUnescaped(line, ';')
		if len(parts) != 6 {
			return fmt.Errorf("csv: malformed edge line %q", line)
		}
		id, err := parseID(parts[0])
		if err != nil {
			return err
		}
		graphs, err := parseIDSet(parts[1])
		if err != nil {
			return err
		}
		src, err := parseID(parts[2])
		if err != nil {
			return err
		}
		tgt, err := parseID(parts[3])
		if err != nil {
			return err
		}
		label, err := unescape(parts[4])
		if err != nil {
			return err
		}
		props, err := meta.decodeProps("e", label, parts[5])
		if err != nil {
			return err
		}
		bump(id)
		edges = append(edges, epgm.Edge{ID: id, Label: intern(label), Source: src, Target: tgt, Properties: props, GraphIDs: graphs})
		return nil
	}); err != nil {
		return nil, err
	}

	epgm.EnsureIDsAbove(maxID)
	return epgm.NewLogicalGraph(env, head,
		dataflow.FromSlice(env, vertices), dataflow.FromSlice(env, edges)), nil
}

func parseID(s string) (epgm.ID, error) {
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("csv: bad id %q: %v", s, err)
	}
	return epgm.ID(n), nil
}

func parseIDSet(s string) (epgm.IDSet, error) {
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	set := epgm.NewIDSet()
	for _, p := range parts {
		id, err := parseID(p)
		if err != nil {
			return nil, err
		}
		set = set.Add(id)
	}
	return set, nil
}

func readLines(path string, fn func(line string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
	}
	return sc.Err()
}

func readMetadata(path string) (*metadata, error) {
	meta := newMetadata()
	err := readLines(path, func(line string) error {
		parts := splitUnescaped(line, ';')
		if len(parts) != 3 {
			return fmt.Errorf("csv: malformed metadata line %q", line)
		}
		kind := parts[0]
		label, err := unescape(parts[1])
		if err != nil {
			return err
		}
		k := metaKey(kind, label)
		if parts[2] == "" {
			meta.keys[k] = nil
			return nil
		}
		for _, col := range splitUnescaped(parts[2], ',') {
			name, typ, ok := strings.Cut(col, ":")
			if !ok {
				return fmt.Errorf("csv: malformed metadata column %q", col)
			}
			key, err := unescape(name)
			if err != nil {
				return err
			}
			meta.keys[k] = append(meta.keys[k], key)
			meta.types[k] = append(meta.types[k], typ)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return meta, nil
}
