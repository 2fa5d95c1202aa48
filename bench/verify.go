package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"strconv"

	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
)

// reference is what a request must return: the row count and a hash of the
// rows that does not depend on their order.
type reference struct {
	Count    int64  `json:"count"`
	RowsHash uint64 `json:"rows_hash"`
}

// rowHasher accumulates an order-insensitive hash of rows: each row is
// hashed over its cells' canonical text and the row hashes are summed.
type rowHasher struct {
	sum uint64
	buf []byte
}

func (h *rowHasher) beginRow() { h.buf = h.buf[:0] }

// The cell writers tag each value with its type, so the string "1" and the
// number 1 hash differently.
func (h *rowHasher) null()        { h.buf = append(h.buf, 'n', 0) }
func (h *rowHasher) bool(b bool)  { h.buf = append(strconv.AppendBool(append(h.buf, 'b'), b), 0) }
func (h *rowHasher) int(n int64)  { h.buf = append(strconv.AppendInt(append(h.buf, 'i'), n, 10), 0) }
func (h *rowHasher) str(s string) { h.buf = append(append(append(h.buf, 's'), s...), 0) }
func (h *rowHasher) float(f float64) {
	h.buf = append(strconv.AppendFloat(append(h.buf, 'f'), f, 'g', -1, 64), 0)
}

func (h *rowHasher) endRow() {
	f := fnv.New64a()
	f.Write(h.buf)
	h.sum += f.Sum64()
}

// morphism is the paper's g.cypher(q, HOMO, ISO), which is also what cypherd
// serves by default.
var morphism = operators.Morphism{Vertex: operators.Homomorphism, Edge: operators.Isomorphism}

// maxExactJSONInt mirrors the server's rule that integers beyond JSON's
// exact range travel as strings.
const maxExactJSONInt = 1 << 53

// computeReference executes one request through the library path
// (core.Execute on the one-partition generated graph) and hashes its rows.
func computeReference(g *epgm.LogicalGraph, r request) (reference, error) {
	var params map[string]epgm.PropertyValue
	if r.firstName != "" {
		params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(r.firstName)}
	}
	res, err := core.Execute(g, r.query, core.Config{Vertex: morphism.Vertex, Edge: morphism.Edge, Params: params})
	if err != nil {
		return reference{}, fmt.Errorf("reference for %s: %w", r.class, err)
	}
	var h rowHasher
	for _, row := range res.Rows() {
		h.beginRow()
		for _, v := range row.Values {
			switch v.Type() {
			case epgm.TypeBool:
				h.bool(v.Bool())
			case epgm.TypeInt64:
				if n := v.Int(); n > maxExactJSONInt || n < -maxExactJSONInt {
					h.str(strconv.FormatInt(n, 10))
				} else {
					h.int(n)
				}
			case epgm.TypeFloat64:
				h.float(v.Float())
			case epgm.TypeString:
				h.str(v.Str())
			default:
				h.null()
			}
		}
		h.endRow()
	}
	return reference{Count: res.Count(), RowsHash: h.sum}, nil
}

// decodedHash fully decodes a /query response body and returns its count
// and the order-insensitive hash of its rows.
func decodedHash(body []byte) (reference, error) {
	var resp struct {
		Rows  [][]any `json:"rows"`
		Count int64   `json:"count"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return reference{}, fmt.Errorf("decode response: %w", err)
	}
	var h rowHasher
	for _, row := range resp.Rows {
		h.beginRow()
		for _, cell := range row {
			switch v := cell.(type) {
			case nil:
				h.null()
			case bool:
				h.bool(v)
			case string:
				h.str(v)
			case json.Number:
				if n, err := strconv.ParseInt(v.String(), 10, 64); err == nil {
					h.int(n)
				} else if f, err := v.Float64(); err == nil {
					h.float(f)
				} else {
					return reference{}, fmt.Errorf("bad number %q", v)
				}
			default:
				return reference{}, fmt.Errorf("unexpected cell %T", cell)
			}
		}
		h.endRow()
	}
	return reference{Count: resp.Count, RowsHash: h.sum}, nil
}

var (
	rowsKey  = []byte(`"rows":`)
	countKey = []byte(`,"count":`)
	wireSeed = maphash.MakeSeed()
)

// wireDigest is the cheap check of the timed phase: it cuts the rows array
// and the count out of the body without decoding JSON. Quotes inside JSON
// strings are escaped, so both keys can only match structurally; the
// count's is the last one because no later field has that name.
func wireDigest(body []byte) (count int64, rowsHash uint64, err error) {
	start := bytes.Index(body, rowsKey)
	end := bytes.LastIndex(body, countKey)
	if start < 0 || end < start {
		return 0, 0, fmt.Errorf("response has no rows/count fields")
	}
	digits := body[end+len(countKey):]
	n := 0
	for n < len(digits) && digits[n] >= '0' && digits[n] <= '9' {
		n++
	}
	count, err = strconv.ParseInt(string(digits[:n]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("response count: %w", err)
	}
	return count, maphash.Bytes(wireSeed, body[start+len(rowsKey):end]), nil
}
