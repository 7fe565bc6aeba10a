// Package client is the Go client for the simd HTTP API (internal/server).
// cmd/paperfigs uses it in -server mode: a Pool is the sweep.Executor that
// submits a figure's declared runs to a warm cluster whose result stores make
// repeat figures near-instant.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/jsonplan"
	"repro/internal/server/api"
)

// StatusError is a non-2xx answer from a reachable daemon, or a 2xx one
// whose statistics fail their checksums. Failover logic distinguishes it
// from transport errors: a daemon that answered (even with an error) is
// alive, and retrying the same request on another member would produce the
// same answer.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Code)
	}
	return fmt.Sprintf("HTTP %d", e.Code)
}

// IsStatusError reports whether err is (or wraps) a daemon-answered HTTP
// error rather than a transport failure.
func IsStatusError(err error) bool {
	var se *StatusError
	return errors.As(err, &se)
}

// Client talks to one simd daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8404".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Simulations can run long,
	// so callers wanting timeouts should bound the request context rather
	// than the whole client.
	HTTPClient *http.Client
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out; non-2xx
// responses are returned as *StatusError carrying the server's message.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	_, err := c.exchange(ctx, method, path, body, out, false)
	return err
}

// maxSizedBody is the largest declared response length exchange trusts to
// size its read buffer up front; a longer answer is read as it arrives.
const maxSizedBody = 64 << 20

// reads recycles the buffers answers are read into. An answer is decoded
// before its buffer goes back, and nothing decoded aliases it: jsonplan
// copies every string and raw message out, and its errors are
// encoding/json's, which quote no input bytes by reference.
var reads = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRead is the largest read buffer recycled: one huge batch answer
// is left to the collector rather than kept alive.
const maxPooledRead = 1 << 20

// exchange is do that also returns the response's header; forwarded marks the
// request api.ForwardedHeader.
func (c *Client) exchange(ctx context.Context, method, path string, body, out any, forwarded bool) (http.Header, error) {
	var rdr io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		rdr = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if forwarded {
		req.Header.Set(api.ForwardedHeader, "1")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	buf := reads.Get().(*[]byte)
	data, err := api.ReadBody(*buf, resp.Body, resp.ContentLength, maxSizedBody)
	defer func() {
		if cap(data) <= maxPooledRead {
			*buf = data[:0]
			reads.Put(buf)
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: read: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		var apiErr api.Error
		se := &StatusError{Code: resp.StatusCode}
		if jsonplan.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			se.Msg = apiErr.Error
		}
		return nil, fmt.Errorf("client: %s %s: %w", method, path, se)
	}
	if out == nil {
		return resp.Header, nil
	}
	if err := jsonplan.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("client: %s %s: decode: %w", method, path, err)
	}
	return resp.Header, nil
}

// statsCRCs reads an answer's api.StatsCRCHeader and checks n results'
// statistics against it, stats(i) being the i-th result's bytes (nil for
// none). It returns the checksums, or a *StatusError if the header is
// missing, malformed or disagrees with any result.
func statsCRCs(h http.Header, n int, stats func(i int) []byte) ([]uint32, error) {
	entries := strings.Split(h.Get(api.StatsCRCHeader), ",")
	if len(entries) != n && n > 0 {
		return nil, &StatusError{Code: http.StatusOK, Msg: fmt.Sprintf("%d statistics checksums for %d results", len(entries), n)}
	}
	crcs := make([]uint32, n)
	for i := range crcs {
		b := stats(i)
		if b == nil && entries[i] == "" {
			continue
		}
		crc, err := strconv.ParseUint(entries[i], 16, 32)
		if err != nil || b == nil || crc32.Checksum(b, castagnoli) != uint32(crc) {
			return nil, &StatusError{Code: http.StatusOK, Msg: fmt.Sprintf("result %d: statistics fail their checksum", i)}
		}
		crcs[i] = uint32(crc)
	}
	return crcs, nil
}

// castagnoli is the CRC-32C table: the checksum a result store keeps beside
// its statistics (simstore.Checksum, which this package does not import).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Health checks the daemon's liveness.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Runs submits a batch of runs: store hits come back inline, misses as
// queued job IDs. With wait set, every open job handle is then polled
// (WaitJob) at the member that holds it (at) so the response carries final
// statuses and statistics for every spec; the daemon itself never blocks a
// request on a simulation.
func (c *Client) Runs(ctx context.Context, req api.RunRequest, wait bool) (*api.RunResponse, error) {
	var resp api.RunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/runs", req, &resp); err != nil {
		return nil, err
	}
	if !wait {
		return &resp, nil
	}
	for i := range resp.Results {
		r := &resp.Results[i]
		if api.IsTerminal(r.Status) || r.JobID == "" {
			continue
		}
		st, err := c.at(r.Peer).WaitJob(ctx, r.JobID, 0)
		if err != nil {
			return nil, err
		}
		r.Status, r.Stats, r.Error = st.Status, st.Stats, st.Error
	}
	return &resp, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitJob polls until the job reaches a terminal state (or ctx expires).
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*api.JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if api.IsTerminal(st.Status) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Cancel cancels a queued job and returns the state the cancel left it in.
func (c *Client) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// at returns a client for the member a result or status names as its Peer —
// where the job lives, so a poll there is one request — sharing this client's
// HTTPClient; c itself when peer is empty (a single-node daemon names none)
// or is c's own daemon.
func (c *Client) at(peer string) *Client {
	if peer = strings.TrimRight(peer, "/"); peer == "" || peer == c.BaseURL {
		return c
	}
	return &Client{BaseURL: peer, HTTPClient: c.HTTPClient}
}

// ForwardRuns submits a batch marked as cluster-forwarded: the receiving
// daemon executes the specs itself instead of routing them onward. Each
// result's statistics come back as the bytes the daemon sent, checked
// against its checksums. Used by the server's cluster layer, not by
// ordinary clients.
func (c *Client) ForwardRuns(ctx context.Context, req api.RunRequest) (*api.RawRunResponse, error) {
	var resp api.RawRunResponse
	h, err := c.exchange(ctx, http.MethodPost, "/v1/runs", req, &resp, true)
	if err != nil {
		return nil, err
	}
	crcs, err := statsCRCs(h, len(resp.Results), func(i int) []byte { return resp.Results[i].Stats })
	if err != nil {
		return nil, fmt.Errorf("client: POST /v1/runs: %w", err)
	}
	for i, crc := range crcs {
		resp.Results[i].StatsCRC = crc
	}
	return &resp, nil
}

// LookupRecords probes the daemon's local store for a batch of
// fingerprints — no execution, no onward routing.
func (c *Client) LookupRecords(ctx context.Context, req api.LookupRequest) (*api.LookupResponse, error) {
	var resp api.LookupResponse
	if err := c.do(ctx, http.MethodPost, "/v1/records/lookup", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ProbeRecords is LookupRecords with each record's statistics kept as the
// bytes the daemon sent, checked against its checksums. Used by the
// server's cluster layer to find warm replicas before re-executing anything.
func (c *Client) ProbeRecords(ctx context.Context, req api.LookupRequest) (*api.RawLookupResponse, error) {
	var resp api.RawLookupResponse
	h, err := c.exchange(ctx, http.MethodPost, "/v1/records/lookup", req, &resp, false)
	if err != nil {
		return nil, err
	}
	crcs, err := statsCRCs(h, len(resp.Records), func(i int) []byte { return resp.Records[i].Stats })
	if err != nil {
		return nil, fmt.Errorf("client: POST /v1/records/lookup: %w", err)
	}
	for i, crc := range crcs {
		resp.Records[i].StatsCRC = crc
	}
	return &resp, nil
}

// Replicate pushes store records and checkpoint blobs to the daemon for
// banking as a replica. Used by the server's cluster layer, not by
// ordinary clients.
func (c *Client) Replicate(ctx context.Context, req api.ReplicateRequest) (*api.ReplicateResponse, error) {
	var resp api.ReplicateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/replicate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
