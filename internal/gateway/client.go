package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/billing"
)

// Client is a typed caller of the v1 API. The zero fields default sanely
// (http.DefaultClient, no Block wrapper); BaseURL and Token are required.
//
// Block, when set, wraps every HTTP round-trip. A driver goroutine tracked
// by the virtual clock MUST set it to clock.BlockOn: the socket wait inside
// Do is otherwise invisible to quiescence detection and the simulation
// deadlocks — the clock sees a tracked goroutine that is neither running nor
// blocked on it. Real-clock callers leave it nil.
type Client struct {
	BaseURL string
	Token   string
	HTTP    *http.Client
	Block   func(func())
}

// InvokeResult is the client-side decoding of a sync invoke response: the
// streamed body plus the X-Taureau-* metadata headers. Latency and Billed
// are platform-clock figures — under a virtual clock, exact simulated
// durations.
type InvokeResult struct {
	Output    []byte
	Cold      bool
	Latency   time.Duration
	Billed    time.Duration
	RequestID int64
	TraceID   int64
	Attempt   int
	Deduped   bool
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do runs one request and returns status, body and headers. Non-2xx
// responses come back as (*APIError, nil body) so errors.Is works against
// platform sentinels across the wire.
func (c *Client) do(method, path string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.Token)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}

	var resp *http.Response
	var respBody []byte
	var rtErr error
	roundTrip := func() {
		resp, rtErr = c.httpClient().Do(req)
		if rtErr != nil {
			return
		}
		defer resp.Body.Close()
		respBody, rtErr = io.ReadAll(resp.Body)
	}
	if c.Block != nil {
		c.Block(roundTrip)
	} else {
		roundTrip()
	}
	if rtErr != nil {
		return 0, nil, nil, rtErr
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, nil, resp.Header, decodeError(resp.StatusCode, respBody)
	}
	return resp.StatusCode, respBody, resp.Header, nil
}

// Register deploys a function from its spec.
func (c *Client) Register(spec FunctionSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	_, _, _, err = c.do(http.MethodPost, "/v1/functions", body, map[string]string{
		"Content-Type": "application/json",
	})
	return err
}

// Invoke runs a function synchronously and decodes the result metadata from
// the response headers.
func (c *Client) Invoke(name string, payload []byte) (InvokeResult, error) {
	_, body, respHdr, err := c.do(http.MethodPost, "/v1/functions/"+name+"/invoke", payload, map[string]string{
		"Content-Type": "application/octet-stream",
	})
	if err != nil {
		return InvokeResult{}, err
	}
	parseI := func(key string) int64 {
		v, _ := strconv.ParseInt(respHdr.Get(key), 10, 64)
		return v
	}
	return InvokeResult{
		Output:    body,
		Cold:      respHdr.Get(hdrCold) == "true",
		Latency:   time.Duration(parseI(hdrLatencyNs)),
		Billed:    time.Duration(parseI(hdrBilledNs)),
		RequestID: parseI(hdrRequestID),
		TraceID:   parseI(hdrTraceID),
		Attempt:   int(parseI(hdrAttempt)),
		Deduped:   respHdr.Get(hdrDeduped) == "true",
	}, nil
}

// InvokeAsync submits an invocation and returns its id for polling.
func (c *Client) InvokeAsync(name string, payload []byte) (string, error) {
	_, body, _, err := c.do(http.MethodPost, "/v1/functions/"+name+"/invoke-async", payload, map[string]string{
		"Content-Type": "application/octet-stream",
	})
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("gateway client: bad submit response: %w", err)
	}
	return resp.ID, nil
}

// Invocation polls one async invocation's status.
func (c *Client) Invocation(id string) (InvocationStatus, error) {
	_, body, _, err := c.do(http.MethodGet, "/v1/invocations/"+id, nil, nil)
	if err != nil {
		return InvocationStatus{}, err
	}
	var st InvocationStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return InvocationStatus{}, fmt.Errorf("gateway client: bad poll response: %w", err)
	}
	return st, nil
}

// List returns this tenant's functions.
func (c *Client) List() ([]FunctionSummary, error) {
	_, body, _, err := c.do(http.MethodGet, "/v1/functions", nil, nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Functions []FunctionSummary `json:"functions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("gateway client: bad list response: %w", err)
	}
	return resp.Functions, nil
}

// Delete unregisters a function.
func (c *Client) Delete(name string) error {
	_, _, _, err := c.do(http.MethodDelete, "/v1/functions/"+name, nil, nil)
	return err
}

// Invoice fetches the tenant's priced usage.
func (c *Client) Invoice(tenant string) (billing.Invoice, error) {
	_, body, _, err := c.do(http.MethodGet, "/v1/tenants/"+tenant+"/invoice", nil, nil)
	if err != nil {
		return billing.Invoice{}, err
	}
	var inv billing.Invoice
	if err := json.Unmarshal(body, &inv); err != nil {
		return billing.Invoice{}, fmt.Errorf("gateway client: bad invoice response: %w", err)
	}
	return inv, nil
}
