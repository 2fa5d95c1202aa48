package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// expectation is what one request class must answer. wireHash is taken from
// the first fully decoded response that agreed with the reference; the
// timed phase compares against it so that it never decodes JSON.
type expectation struct {
	ref      reference
	wireHash uint64
	wireSet  bool
}

// client is one closed-loop caller. It owns its buffers: a request in the
// timed phase allocates what net/http allocates and nothing else.
type client struct {
	http *http.Client
	url  string
	body bytes.Reader
	buf  bytes.Buffer
	// rec, when set, receives a span around every tagged request.
	rec *recorder
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func closeAll(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// post sends one request and leaves the response body in c.buf. tag, when
// not empty, is sent as X-Bench-Req; the traced run uses it to tie the
// server-side span to the client's.
func (c *client) post(r *request, tag string) (status int, elapsed time.Duration, err error) {
	c.body.Reset(r.body)
	req, err := http.NewRequest(http.MethodPost, c.url, &c.body)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tag != "" {
		req.Header.Set(benchReqHeader, tag)
		if c.rec != nil {
			id := c.rec.beginClient(tag)
			defer c.rec.end(id)
		}
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	elapsed = time.Since(start)
	if err != nil {
		return resp.StatusCode, elapsed, err
	}
	return resp.StatusCode, elapsed, nil
}

// checkFull decodes the response in c.buf completely and compares it with
// the reference. On success it records, or re-checks, the wire hash the
// timed phase relies on.
func (c *client) checkFull(status int, exp *expectation) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, c.buf.Bytes())
	}
	got, err := decodedHash(c.buf.Bytes())
	if err != nil {
		return err
	}
	if got != exp.ref {
		return fmt.Errorf("response (count %d, rows hash %x) differs from reference (count %d, rows hash %x)",
			got.Count, got.RowsHash, exp.ref.Count, exp.ref.RowsHash)
	}
	_, wire, err := wireDigest(c.buf.Bytes())
	if err != nil {
		return err
	}
	if exp.wireSet && exp.wireHash != wire {
		return fmt.Errorf("rows bytes differ between two verified responses: row order is not stable")
	}
	exp.wireHash, exp.wireSet = wire, true
	return nil
}

// checkFast is the timed phase's check: status, count and the hash of the
// rows bytes against the verified warm-up response.
func (c *client) checkFast(status int, exp *expectation) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	count, wire, err := wireDigest(c.buf.Bytes())
	if err != nil {
		return err
	}
	if count != exp.ref.Count || !exp.wireSet || wire != exp.wireHash {
		return fmt.Errorf("count %d / rows bytes differ from the verified response (count %d)", count, exp.ref.Count)
	}
	return nil
}
