// Package client is the Go client for the simd HTTP API (internal/server).
// cmd/paperfigs uses it in -server mode to farm figure generation out to a
// warm daemon whose result store makes repeat figures near-instant.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/server/api"
)

// StatusError is a non-2xx answer from a reachable daemon. Failover logic
// distinguishes it from transport errors: a daemon that answered (even with
// an error) is alive, and retrying the same request on another member would
// produce the same answer.
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
func (c *Client) do(ctx context.Context, method, path string, body, out any, hdr http.Header) error {
	var rdr io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		rdr = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: %s %s: read: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		var apiErr api.Error
		se := &StatusError{Code: resp.StatusCode}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			se.Msg = apiErr.Error
		}
		return fmt.Errorf("client: %s %s: %w", method, path, se)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: %s %s: decode: %w", method, path, err)
	}
	return nil
}

// Health checks the daemon's liveness.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h, nil); err != nil {
		return nil, err
	}
	return &h, nil
}

// Runs submits a batch of runs: store hits come back inline, misses as
// queued job IDs. With wait set, every open job handle is then polled
// (WaitJob) so the response carries final statuses and statistics for every
// spec; the daemon itself never blocks a request on a simulation.
func (c *Client) Runs(ctx context.Context, req api.RunRequest, wait bool) (*api.RunResponse, error) {
	var resp api.RunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/runs", req, &resp, nil); err != nil {
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
		st, err := c.WaitJob(ctx, r.JobID, 0)
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
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &st, nil); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitJob polls until the job reaches a terminal state (or ctx expires).
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*api.JobStatus, error) {
	return c.waitJob(ctx, id, poll, nil)
}

// waitJob is WaitJob with an observer: onStatus (may be nil) sees every
// polled snapshot, the terminal one included — how figure progress is read.
func (c *Client) waitJob(ctx context.Context, id string, poll time.Duration, onStatus func(*api.JobStatus)) (*api.JobStatus, error) {
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
		if onStatus != nil {
			onStatus(st)
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

// ForwardJob fetches a job's status marked as cluster-internal: the peer
// answers from its own queue only, so a lookup proxied to the job's owner
// stops there. Used by the server, not by ordinary clients (Job already
// benefits from the server-side proxy).
func (c *Client) ForwardJob(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	hdr := http.Header{api.ForwardedHeader: []string{"1"}}
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &st, hdr); err != nil {
		return nil, err
	}
	return &st, nil
}

// ForwardCancel is ForwardJob's cancellation counterpart.
func (c *Client) ForwardCancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	hdr := http.Header{api.ForwardedHeader: []string{"1"}}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, &st, hdr); err != nil {
		return nil, err
	}
	return &st, nil
}

// ForwardRuns submits a batch marked as cluster-forwarded: the receiving
// daemon executes the specs itself instead of routing them onward. Used by
// the server's cluster layer, not by ordinary clients.
func (c *Client) ForwardRuns(ctx context.Context, req api.RunRequest) (*api.RunResponse, error) {
	var resp api.RunResponse
	hdr := http.Header{api.ForwardedHeader: []string{"1"}}
	if err := c.do(ctx, http.MethodPost, "/v1/runs", req, &resp, hdr); err != nil {
		return nil, err
	}
	return &resp, nil
}

// LookupRecords probes the daemon's local store for a batch of
// fingerprints — no execution, no onward routing. Used by the server's
// cluster layer to find warm replicas before re-executing anything.
func (c *Client) LookupRecords(ctx context.Context, req api.LookupRequest) (*api.LookupResponse, error) {
	var resp api.LookupResponse
	hdr := http.Header{api.ForwardedHeader: []string{"1"}}
	if err := c.do(ctx, http.MethodPost, "/v1/records/lookup", req, &resp, hdr); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Replicate pushes store records and checkpoint blobs to the daemon for
// banking as a replica. Used by the server's cluster layer, not by
// ordinary clients.
func (c *Client) Replicate(ctx context.Context, req api.ReplicateRequest) (*api.ReplicateResponse, error) {
	var resp api.ReplicateResponse
	hdr := http.Header{api.ForwardedHeader: []string{"1"}}
	if err := c.do(ctx, http.MethodPost, "/v1/replicate", req, &resp, hdr); err != nil {
		return nil, err
	}
	return &resp, nil
}

// FigureAsync starts a figure job on the daemon and returns its job ID
// without waiting; poll it with WaitJob (JobStatus.Progress carries the
// per-run progress).
func (c *Client) FigureAsync(ctx context.Context, key string, opt api.FigureOptions) (string, error) {
	q := opt.Query()
	q.Set("async", "1")
	path := "/v1/figures/" + url.PathEscape(key) + "?" + q.Encode()
	var resp api.FigureResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp, nil); err != nil {
		return "", err
	}
	if resp.JobID == "" {
		return "", fmt.Errorf("client: async figure %s returned no job ID", key)
	}
	return resp.JobID, nil
}
