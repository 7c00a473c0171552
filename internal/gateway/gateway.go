// Package gateway is the platform's deployable front door: a versioned REST
// control/data plane over the core.Platform assembly. Callers authenticate
// with bearer tokens that map to tenant handles; every request operates
// strictly inside that tenant's namespace (cross-tenant names read as
// not-found, never forbidden, so namespaces stay unprobeable — the same
// contract core.TenantHandle enforces in-process).
//
// The API surface, v1:
//
//	POST   /v1/functions                  register (FunctionSpec body)
//	GET    /v1/functions                  list this tenant's functions
//	DELETE /v1/functions/{name}           unregister
//	POST   /v1/functions/{name}/invoke    sync invoke (streaming body)
//	POST   /v1/functions/{name}/invoke-async   submit, 202 + id
//	GET    /v1/invocations/{id}           poll an async invocation
//	GET    /v1/tenants/{tenant}/invoice   priced usage
//	GET    /healthz                       liveness (no auth)
//
// Every error is a JSON envelope with a machine-readable code drawn from the
// wire table in status.go; invocation metadata (cold, latency, billed
// duration — all on the platform clock, so deterministic under the virtual
// clock) travels in X-Taureau-* response headers beside the streamed output.
//
// Clock discipline: gateway handlers run on net/http goroutines the virtual
// clock does not track. Each invoke is therefore handed to a clock.Go worker
// (tracked; its Sleeps advance virtual time) and the handler waits on a
// plain channel — an untracked wait the clock cannot see, which is exactly
// right: the HTTP goroutine must be invisible to quiescence detection.
// Virtual-clock callers in the same process wrap their HTTP round-trips in
// clock.BlockOn (see Client) so the driver's socket wait does not deadlock
// the simulation.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/obs"
)

// Config parameterizes a Gateway.
type Config struct {
	// Tokens maps bearer tokens to tenant names. Requests whose token is
	// absent fail 401; there is no anonymous access.
	Tokens map[string]string
	// Executor materializes FunctionSpecs. Default: NewInProc() (builtins
	// only).
	Executor Executor
	// MaxBody bounds request bodies in bytes. Default 8 MiB.
	MaxBody int64
}

// Gateway serves the v1 REST API over one core.Platform. It is an
// http.Handler; mount it wherever (httptest, taureau -gateway, behind the
// telemetry mux).
type Gateway struct {
	p       *core.Platform
	exec    Executor
	tokens  map[string]string
	maxBody int64
	mux     *http.ServeMux

	mu     sync.Mutex
	invs   map[string]*invocation
	nextID int64
}

// invocation is one async submission's lifecycle record.
type invocation struct {
	tenant   string
	function string
	done     bool
	res      faas.Result
	err      error
}

// New builds a Gateway over p.
func New(p *core.Platform, cfg Config) *Gateway {
	if cfg.Executor == nil {
		cfg.Executor = NewInProc()
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	g := &Gateway{
		p:       p,
		exec:    cfg.Executor,
		tokens:  cfg.Tokens,
		maxBody: cfg.MaxBody,
		invs:    make(map[string]*invocation),
	}
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	m.HandleFunc("POST /v1/functions", g.authed(g.handleRegister))
	m.HandleFunc("GET /v1/functions", g.authed(g.handleList))
	m.HandleFunc("DELETE /v1/functions/{name}", g.authed(g.handleDelete))
	m.HandleFunc("POST /v1/functions/{name}/invoke", g.authed(g.handleInvoke))
	m.HandleFunc("POST /v1/functions/{name}/invoke-async", g.authed(g.handleInvokeAsync))
	m.HandleFunc("GET /v1/invocations/{id}", g.authed(g.handlePoll))
	m.HandleFunc("GET /v1/tenants/{tenant}/invoice", g.authed(g.handleInvoice))
	g.mux = m
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// authed resolves the bearer token to a tenant and rejects everything else.
func (g *Gateway) authed(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok {
			writeError(w, ErrUnauthorized)
			return
		}
		tenant, ok := g.tokens[strings.TrimSpace(tok)]
		if !ok {
			writeError(w, ErrUnauthorized)
			return
		}
		h(w, r, tenant)
	}
}

// readBody drains the request body under the size cap, translating the cap
// trip to the payload-size sentinel.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, fmt.Errorf("%w: request body exceeds %d bytes", faas.ErrPayloadSize, g.maxBody)
		}
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleRegister deploys a function from its wire spec.
func (g *Gateway) handleRegister(w http.ResponseWriter, r *http.Request, tenant string) {
	body, err := g.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	var spec FunctionSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if spec.Name == "" || spec.Handler == "" {
		writeError(w, fmt.Errorf("%w: name and handler are required", ErrBadRequest))
		return
	}
	h, err := g.exec.Resolve(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := g.p.Tenant(tenant).Register(spec.Name, h, spec.faasConfig()); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{
		"name":   spec.Name,
		"tenant": tenant,
	})
}

// FunctionSummary is one row of GET /v1/functions.
type FunctionSummary struct {
	Name           string `json:"name"`
	MemoryMB       int    `json:"memory_mb"`
	TimeoutMs      int64  `json:"timeout_ms"`
	KeepAliveMs    int64  `json:"keepalive_ms"`
	MaxConcurrency int    `json:"max_concurrency"`
	Prewarm        int    `json:"prewarm,omitempty"`
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request, tenant string) {
	infos := g.p.Tenant(tenant).Functions()
	out := make([]FunctionSummary, 0, len(infos))
	for _, fi := range infos {
		out = append(out, FunctionSummary{
			Name:           fi.Name,
			MemoryMB:       fi.Config.MemoryMB,
			TimeoutMs:      fi.Config.Timeout.Milliseconds(),
			KeepAliveMs:    fi.Config.KeepAlive.Milliseconds(),
			MaxConcurrency: fi.Config.MaxConcurrency,
			Prewarm:        fi.Config.Prewarm,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"functions": out})
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request, tenant string) {
	if err := g.p.Tenant(tenant).Unregister(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// runInvoke executes one invocation on a clock-tracked worker goroutine and
// waits for it on a plain (untracked, clock-invisible) channel. Each HTTP
// invoke roots exactly one trace; the span carries tenant and function
// labels into the SLO/telemetry pipeline.
func (g *Gateway) runInvoke(tenant, name string, payload []byte, idemKey string) (faas.Result, error) {
	type outcome struct {
		res faas.Result
		err error
	}
	ch := make(chan outcome, 1)
	g.p.Clock.Go(func() {
		var span obs.SpanRef
		var tc obs.TraceCtx
		if g.p.Obs != nil {
			span = g.p.Obs.Tracer().Start(obs.TraceCtx{}, "gateway.invoke")
			tc = span.Ctx()
		}
		res, err := g.p.FaaS.Invoke(faas.Req{Tenant: tenant, Name: name, Payload: payload, Trace: tc, IdemKey: idemKey})
		if span.Active() {
			span.EndLabeled(tenant, name, err != nil)
		}
		ch <- outcome{res, err}
	})
	o := <-ch
	return o.res, o.err
}

// Result metadata headers on sync invoke responses. Values are platform-
// clock durations in nanoseconds — under the virtual clock they are exact
// simulated figures, independent of wall time.
const (
	hdrRequestID = "X-Taureau-Request-Id"
	hdrCold      = "X-Taureau-Cold"
	hdrLatencyNs = "X-Taureau-Latency-Ns"
	hdrBilledNs  = "X-Taureau-Billed-Ns"
	hdrAttempt   = "X-Taureau-Attempt"
	hdrTraceID   = "X-Taureau-Trace-Id"
	hdrDeduped   = "X-Taureau-Deduped"
)

func setResultHeaders(w http.ResponseWriter, res faas.Result) {
	h := w.Header()
	h.Set(hdrRequestID, strconv.FormatInt(res.RequestID, 10))
	h.Set(hdrCold, strconv.FormatBool(res.Cold))
	h.Set(hdrLatencyNs, strconv.FormatInt(res.Latency.Nanoseconds(), 10))
	h.Set(hdrBilledNs, strconv.FormatInt(res.Billed.Nanoseconds(), 10))
	h.Set(hdrAttempt, strconv.Itoa(res.Attempt))
	h.Set(hdrTraceID, strconv.FormatInt(res.TraceID, 10))
	if res.Deduped {
		h.Set(hdrDeduped, "true")
	}
}

// invokeChunk bounds each streamed write of the response body. Handler
// outputs are arbitrary bytes; streaming them in flushed chunks means a
// client sees first bytes before the last are serialized, and large outputs
// never require a contiguous response buffer.
const invokeChunk = 32 << 10

func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request, tenant string) {
	payload, err := g.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	res, err := g.runInvoke(tenant, name, payload, r.Header.Get("Idempotency-Key"))
	if err != nil {
		writeError(w, err)
		return
	}
	setResultHeaders(w, res)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for off := 0; off < len(res.Output); off += invokeChunk {
		end := off + invokeChunk
		if end > len(res.Output) {
			end = len(res.Output)
		}
		if _, err := w.Write(res.Output[off:end]); err != nil {
			return // client went away mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (g *Gateway) handleInvokeAsync(w http.ResponseWriter, r *http.Request, tenant string) {
	payload, err := g.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")

	g.mu.Lock()
	g.nextID++
	id := fmt.Sprintf("inv-%06d", g.nextID)
	g.invs[id] = &invocation{tenant: tenant, function: name}
	g.mu.Unlock()

	// InvokeAsync spawns its own clock-tracked goroutine and applies the
	// platform's transparent retry; the callback lands on that goroutine.
	g.p.FaaS.InvokeAsync(faas.Req{Tenant: tenant, Name: name, Payload: payload}, func(res faas.Result, err error) {
		g.mu.Lock()
		if inv := g.invs[id]; inv != nil {
			inv.done, inv.res, inv.err = true, res, err
		}
		g.mu.Unlock()
	})
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "pending"})
}

// InvocationStatus is the poll response for one async invocation.
type InvocationStatus struct {
	ID        string     `json:"id"`
	Function  string     `json:"function"`
	Status    string     `json:"status"`           // pending | succeeded | failed
	Output    []byte     `json:"output,omitempty"` // base64 in JSON
	Error     *ErrorBody `json:"error,omitempty"`
	Cold      bool       `json:"cold,omitempty"`
	LatencyNs int64      `json:"latency_ns,omitempty"`
	BilledNs  int64      `json:"billed_ns,omitempty"`
	Attempt   int        `json:"attempt,omitempty"`
}

func (g *Gateway) handlePoll(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	g.mu.Lock()
	inv := g.invs[id]
	var snap invocation
	if inv != nil {
		snap = *inv
	}
	g.mu.Unlock()
	if inv == nil || snap.tenant != tenant {
		writeError(w, fmt.Errorf("%w: %s", ErrNoInvocation, id))
		return
	}
	st := InvocationStatus{ID: id, Function: snap.function, Status: "pending"}
	if snap.done {
		if snap.err != nil {
			m := statusFor(snap.err)
			st.Status = "failed"
			st.Error = &ErrorBody{Code: m.Code, Message: snap.err.Error()}
		} else {
			st.Status = "succeeded"
			st.Output = snap.res.Output
		}
		st.Cold = snap.res.Cold
		st.LatencyNs = snap.res.Latency.Nanoseconds()
		st.BilledNs = snap.res.Billed.Nanoseconds()
		st.Attempt = snap.res.Attempt
	}
	writeJSON(w, http.StatusOK, st)
}

func (g *Gateway) handleInvoice(w http.ResponseWriter, r *http.Request, tenant string) {
	want := r.PathValue("tenant")
	if want != tenant {
		// Not-found, not forbidden: token holders cannot probe for other
		// tenant names.
		writeError(w, fmt.Errorf("%w: %s", ErrNoTenant, want))
		return
	}
	writeJSON(w, http.StatusOK, g.p.Tenant(tenant).Invoice())
}
