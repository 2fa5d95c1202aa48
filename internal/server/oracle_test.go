package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"gradoop/internal/core"
)

// This file is the oracle the response tests hold the byte path to: the
// rows rendered from the values of Result.Rows(), the library sink, and the
// body as one encoding/json call. What a cell looks like in JSON is decided
// in one place, core.AppendJSONValue, which core's own tests hold to
// encoding/json of the boxed value the server used to marshal.

// queryResponse is the /query response as one marshalled struct.
type queryResponse struct {
	Columns []string        `json:"columns"`
	Rows    json.RawMessage `json:"rows"`
	queryEnvelope
}

// oracleRows renders materialised rows as the JSON array of row arrays.
func oracleRows(rows []core.Row) []byte {
	out := []byte{'['}
	for i, row := range rows {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '[')
		for j, v := range row.Values {
			if j > 0 {
				out = append(out, ',')
			}
			out = core.AppendJSONValue(out, v)
		}
		out = append(out, ']')
	}
	return append(out, ']')
}

// oracleJSON is writeJSON's encoder: no HTML escaping, one trailing newline.
func oracleJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rowsSpan cuts the rows array out of a /query body: what lies between
// "rows": and the last ,"count": (quotes inside JSON strings are escaped,
// so both keys only match structurally).
func rowsSpan(t testing.TB, body []byte) []byte {
	t.Helper()
	start := bytes.Index(body, []byte(`"rows":`))
	end := bytes.LastIndex(body, []byte(`,"count":`))
	if start < 0 || end < start {
		t.Fatalf("body has no rows/count fields: %s", body)
	}
	return body[start+len(`"rows":`) : end]
}
