package ftes

// This file is the Go client for a running ftesd daemon: a thin HTTP
// wrapper over the /jobs API that speaks the daemon's availability
// protocol — a draining daemon answers 503 with a Retry-After header,
// and the client honors it, sleeping (context-bounded) and retrying
// instead of surfacing a transient refusal as an error.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
)

// Client talks to one ftesd daemon.
type Client struct {
	// BaseURL is the daemon's root URL, e.g. "http://127.0.0.1:8080"
	// (trailing slash tolerated).
	BaseURL string
	// HTTP is the underlying HTTP client (nil = http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds how many times a request is sent when the daemon
	// answers 503 + Retry-After (<= 0 means 3). Non-503 responses are
	// never retried: the daemon's error is the answer.
	MaxAttempts int
	// MaxRetryAfter caps how long one Retry-After header can make the
	// client sleep (0 = 30s); a daemon misconfigured with an hour-long
	// drain bound should not hang a caller that set no context deadline.
	MaxRetryAfter time.Duration
}

// SubmitResult is the daemon's acknowledgment of an accepted submission.
type SubmitResult struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Dedup bool   `json:"dedup"`
}

// JobInfo is a point-in-time snapshot of one job, as GET /jobs/{id}
// serves it.
type JobInfo = jobs.Status

// apiError is the daemon's {"error": "..."} body, surfaced verbatim.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("ftesd: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("ftesd: HTTP %d", e.Status)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	base := c.BaseURL
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return base + path
}

// do sends one request, retrying on 503 per the Retry-After header. The
// request body is re-sent from the byte slice on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	capSleep := c.MaxRetryAfter
	if capSleep <= 0 {
		capSleep = 30 * time.Second
	}
	var last error
	for a := 0; a < attempts; a++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining: honor Retry-After (bounded), then try again.
			last = decodeError(resp.StatusCode, data)
			sleep := retryAfter(resp.Header.Get("Retry-After"), capSleep)
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w (last: %v)", ctx.Err(), last)
			case <-time.After(sleep):
			}
			continue
		}
		if resp.StatusCode >= 400 {
			return decodeError(resp.StatusCode, data)
		}
		if out != nil {
			return json.Unmarshal(data, out)
		}
		return nil
	}
	return fmt.Errorf("ftes: gave up after %d attempts: %w", attempts, last)
}

// retryAfter parses a Retry-After value in seconds, clamped to [1s, cap].
// (The HTTP-date form is not produced by ftesd and falls back to 1s.)
func retryAfter(v string, capSleep time.Duration) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 1 {
		return time.Second
	}
	d := time.Duration(secs) * time.Second
	if d > capSleep {
		return capSleep
	}
	return d
}

func decodeError(status int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(body, &e)
	return &apiError{Status: status, Msg: e.Error}
}

// Submit posts a job envelope (any JSON-marshalable value — typically a
// map or the daemon's documented envelope shape) to POST /jobs. A
// draining daemon's 503 + Retry-After is waited out and retried up to
// MaxAttempts times.
func (c *Client) Submit(ctx context.Context, envelope any) (SubmitResult, error) {
	body, err := json.Marshal(envelope)
	if err != nil {
		return SubmitResult{}, err
	}
	var res SubmitResult
	err = c.do(ctx, http.MethodPost, "/jobs", body, &res)
	return res, err
}

// Job fetches one job's status from GET /jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var st JobInfo
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// Retry un-quarantines a job via POST /jobs/{id}/retry and returns its
// refreshed status.
func (c *Client) Retry(ctx context.Context, id string) (JobInfo, error) {
	var st JobInfo
	err := c.do(ctx, http.MethodPost, "/jobs/"+id+"/retry", nil, &st)
	return st, err
}

// Artifact fetches one artifact's bytes from GET /jobs/{id}/artifacts/{name}.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	var buf []byte
	err := c.doRaw(ctx, "/jobs/"+id+"/artifacts/"+name, &buf)
	return buf, err
}

// doRaw is do for non-JSON responses (artifact bytes).
func (c *Client) doRaw(ctx context.Context, path string, out *[]byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return decodeError(resp.StatusCode, data)
	}
	*out = data
	return nil
}
