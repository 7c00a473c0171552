package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/billing"
	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/gateway"
	"repro/internal/jiffy"
	"repro/internal/kvdb"
	"repro/internal/obs"
)

// gateway-mix: a closed loop of gateway.Client callers, each on one
// kept-alive loopback TCP connection, against a real listener serving the
// gateway the way `taureau -gateway` mounts it, for 8 bearer-token tenants.
// The mix: 65% sync render (kvdb indexed read, 4 KiB blob get, JSON
// encode), 15% sync echo of 256 B, 8% bulk echo of 64 KiB (a streamed
// output), 10% async render polled to completion, 2% control plane
// (register → cold invoke → list → delete).

const (
	gwTenants    = 8
	gwProducts   = 64
	gwCategories = 4
	gwAssetSize  = 4 << 10
	gwEchoSize   = 256
	gwBulkSize   = 64 << 10
	gwOpsPerClnt = 1 << 15
	gwWarmupOps  = 2500 // per client, during setup
	// gwOpsPerSecond sizes the measured phase: each client runs this many
	// ops per second of --seconds, about what the seed code completes on a
	// 2-CPU VM. Every run does the same work, so figures that grow with the
	// op count (the retained heap) compare across commits.
	gwOpsPerSecond = 3300
	gwMaxPolls     = 100_000
	gwCallTimeout  = 30 * time.Second
	gwTraceHeader  = "X-Bench-Trace"
)

const (
	gwRender uint8 = iota
	gwEcho
	gwBulk
	gwAsync
	gwControl
)

// blobNoLatency turns the blob store's modelled latency off: a negative
// cost is no wait on the real clock.
var blobNoLatency = blob.LatencyModel{PerOp: -1}

type gwOp struct {
	kind   uint8
	tenant uint8
	idx    uint16 // product, or payload pool index
}

type gwProduct struct {
	pk, assetKey string
	row          kvdb.Row
	asset        []byte
}

// renderOut is the render handler's JSON output.
type renderOut struct {
	Product  string `json:"product"`
	Category string `json:"category"`
	Price    string `json:"price"`
	Siblings int    `json:"siblings"`
	AssetFNV uint64 `json:"asset_fnv"`
}

type gatewayMix struct {
	cfg      config
	ops      [][]gwOp
	products [gwTenants][]gwProduct
	expected [gwTenants][][]byte // render output per product
	echo     [][]byte
	bulk     [][]byte
}

func newGatewayMix(cfg config) benchWorkload {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &gatewayMix{cfg: cfg}
	for t := 0; t < gwTenants; t++ {
		cats := make([]string, gwProducts)
		for i := range cats {
			cats[i] = fmt.Sprintf("cat-%d", rng.Intn(gwCategories))
		}
		for i := 0; i < gwProducts; i++ {
			pk := fmt.Sprintf("p%03d", i)
			asset := make([]byte, gwAssetSize)
			rng.Read(asset)
			price := strconv.Itoa(100 + rng.Intn(9900))
			w.products[t] = append(w.products[t], gwProduct{
				pk: pk, assetKey: pk + ".png", asset: asset,
				row: kvdb.Row{"name": "product " + pk, "category": cats[i], "price": price},
			})
			siblings := 0
			for _, c := range cats {
				if c == cats[i] {
					siblings++
				}
			}
			h := fnv.New64a()
			h.Write(asset)
			out, err := json.Marshal(renderOut{pk, cats[i], price, siblings, h.Sum64()})
			if err != nil {
				panic(err) // a fixed struct always marshals
			}
			w.expected[t] = append(w.expected[t], out)
		}
	}
	for i := 0; i < 64; i++ {
		b := make([]byte, gwEchoSize)
		rng.Read(b)
		w.echo = append(w.echo, b)
	}
	for i := 0; i < 4; i++ {
		b := make([]byte, gwBulkSize)
		rng.Read(b)
		w.bulk = append(w.bulk, b)
	}
	for c := 0; c < cfg.clients; c++ {
		ops := make([]gwOp, gwOpsPerClnt)
		for i := range ops {
			op := gwOp{tenant: uint8(rng.Intn(gwTenants))}
			switch r := rng.Float64(); {
			case r < 0.65:
				op.kind, op.idx = gwRender, uint16(rng.Intn(gwProducts))
			case r < 0.80:
				op.kind, op.idx = gwEcho, uint16(rng.Intn(len(w.echo)))
			case r < 0.88:
				op.kind, op.idx = gwBulk, uint16(rng.Intn(len(w.bulk)))
			case r < 0.98:
				op.kind, op.idx = gwAsync, uint16(rng.Intn(gwProducts))
			default:
				op.kind, op.idx = gwControl, uint16(rng.Intn(len(w.echo)))
			}
			ops[i] = op
		}
		w.ops = append(w.ops, ops)
	}
	return w
}

// gwLink joins the spans one traced op records on the client, server and
// handler goroutines.
type gwLink struct {
	root     int64 // the op's root span
	invokeID int64 // faas span of the sync invoke in flight, set by serve
	hEnd     int64 // handler end, set by the handler
}

type gwInst struct {
	w     *gatewayMix
	p     *core.Platform
	gw    *gateway.Gateway
	exec  *gateway.InProc
	srv   *http.Server
	url   string
	tr    atomic.Pointer[tracer]
	links sync.Map // trace id → *gwLink
	tdata map[string]*gwTenantData
	cls   []*gwClient
	tns   []string
}

type gwTenantData struct {
	table  string
	bucket string
	byPK   map[string]*gwProduct
}

type gwClient struct {
	idx     int
	next    int
	seq     uint64
	http    *http.Client
	api     [gwTenants]*gateway.Client
	render  [gwProducts][]byte // 8-byte trace stamp + pk
	echo    [][]byte
	bulk    [][]byte
	ctlN    int
	invokes [gwTenants]int64

	traced bool
	trace  int64
	parent int64 // span the next HTTP call's server spans attach to

	log    opLog
	asyncs int64
	polls  int64
}

// traceTransport adds the op's trace context to each request of a traced
// op. gateway.Client builds a fresh request per call, so setting the header
// here touches no request anyone reuses.
type traceTransport struct {
	base http.RoundTripper
	cl   *gwClient
}

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.cl.traced {
		r.Header.Set(gwTraceHeader, strconv.FormatInt(t.cl.trace, 10)+"/"+strconv.FormatInt(t.cl.parent, 10))
	}
	return t.base.RoundTrip(r)
}

func (w *gatewayMix) setup() (instance, error) {
	p := core.New(core.Options{JiffyLatency: jiffy.NoLatency, BlobLatency: blobNoLatency})
	in := &gwInst{w: w, p: p, exec: gateway.NewInProc(), tdata: map[string]*gwTenantData{}}
	in.exec.Bind("bench-render", in.renderHandler)
	in.exec.Bind("bench-echo", in.echoHandler)
	tokens := map[string]string{}
	for t := 0; t < gwTenants; t++ {
		name := fmt.Sprintf("tenant-%d", t)
		tokens[fmt.Sprintf("tok-%d", t)] = name
		in.tns = append(in.tns, name)
		td := &gwTenantData{table: "products-" + name, bucket: "assets-" + name, byPK: map[string]*gwProduct{}}
		if err := p.DB.CreateTable(td.table, name, "category"); err != nil {
			return nil, err
		}
		if err := p.Blob.CreateBucket(td.bucket, name); err != nil {
			return nil, err
		}
		for i := range w.products[t] {
			pr := &w.products[t][i]
			td.byPK[pr.pk] = pr
			if err := p.DB.RunTxn(func(tx *kvdb.Txn) error { return tx.Put(td.table, pr.pk, pr.row) }); err != nil {
				return nil, err
			}
			if _, err := p.Blob.Put(td.bucket, pr.assetKey, pr.asset, blob.PutOptions{}); err != nil {
				return nil, err
			}
		}
		in.tdata[name] = td
	}
	in.gw = gateway.New(p, gateway.Config{Tokens: tokens, Executor: in.exec})
	handler := p.Obs.Handler(
		obs.Route{Pattern: "/v1/", Handler: in.serve},
		obs.Route{Pattern: "/healthz", Handler: in.serve},
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.srv = &http.Server{Handler: handler}
	// Serve returns http.ErrServerClosed once close runs; nothing to report.
	go func() { _ = in.srv.Serve(ln) }()
	in.url = "http://" + ln.Addr().String()

	for c := 0; c < w.cfg.clients; c++ {
		cl := &gwClient{idx: c}
		cl.http = &http.Client{Timeout: gwCallTimeout, Transport: traceTransport{
			base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			cl:   cl,
		}}
		for t := 0; t < gwTenants; t++ {
			cl.api[t] = &gateway.Client{BaseURL: in.url, Token: fmt.Sprintf("tok-%d", t), HTTP: cl.http}
		}
		for i, pr := range w.products[0] {
			cl.render[i] = append(make([]byte, 8), pr.pk...)
		}
		for _, b := range w.echo {
			cl.echo = append(cl.echo, append([]byte(nil), b...))
		}
		for _, b := range w.bulk {
			cl.bulk = append(cl.bulk, append([]byte(nil), b...))
		}
		in.cls = append(in.cls, cl)
	}
	for t := 0; t < gwTenants; t++ {
		api := in.cls[0].api[t]
		for _, s := range []gateway.FunctionSpec{gwSpec("render", "bench-render"), gwSpec("echo", "bench-echo"), gwSpec("bulk", "bench-echo")} {
			if err := api.Register(s); err != nil {
				in.close()
				return nil, fmt.Errorf("register %s: %w", s.Name, err)
			}
		}
	}
	// Warm-up: opens the connections, fills the instance pools and the
	// platform tracer's retention buffer.
	for _, cl := range in.cls {
		cl.log.reset(gwWarmupOps)
		cl.log.t0 = time.Now()
	}
	in.loop(func(cl *gwClient) bool { return cl.log.ops < gwWarmupOps })
	for _, cl := range in.cls {
		if cl.log.failed > 0 {
			in.close()
			return nil, fmt.Errorf("warm-up failed: %v", cl.log.problems)
		}
		cl.asyncs, cl.polls = 0, 0
	}
	return in, nil
}

// gwSpec is a function spec with no modelled start latency. The REST spec
// carries milliseconds; a negative start latency is kept as is by faas and
// is no wait on the real clock.
func gwSpec(name, handler string) gateway.FunctionSpec {
	return gateway.FunctionSpec{Name: name, Handler: handler, ColdStartMs: -1, WarmStartMs: -1}
}

func (in *gwInst) close() {
	in.srv.Close()
	for _, cl := range in.cls {
		cl.http.CloseIdleConnections()
	}
}

// serve wraps Gateway.ServeHTTP: on traced requests it records the gateway
// span and the faas invocation span whose length the gateway reports in
// X-Taureau-Latency-Ns.
func (in *gwInst) serve(w http.ResponseWriter, r *http.Request) {
	tr := in.tr.Load()
	hdr := r.Header.Get(gwTraceHeader)
	if tr == nil || hdr == "" {
		in.gw.ServeHTTP(w, r)
		return
	}
	ts, ps, _ := strings.Cut(hdr, "/")
	trace, _ := strconv.ParseInt(ts, 10, 64)
	parent, _ := strconv.ParseInt(ps, 10, 64)
	name := spServe
	if strings.HasSuffix(r.URL.Path, "/v1/functions") || (r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/functions/")) {
		name = spControl
	}
	id := tr.id()
	var link *gwLink
	var faasID int64
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/invoke") {
		if v, ok := in.links.Load(trace); ok {
			link = v.(*gwLink)
			faasID = tr.id()
			link.invokeID = faasID
		}
	}
	start := tr.now()
	in.gw.ServeHTTP(w, r)
	tr.record(span{trace: trace, id: id, parent: parent, start: start, end: tr.now(), name: name})
	if link != nil {
		lat, err := strconv.ParseInt(w.Header().Get("X-Taureau-Latency-Ns"), 10, 64)
		if err == nil && link.hEnd != 0 {
			kind := spFaasInvoke
			if w.Header().Get("X-Taureau-Cold") == "true" {
				kind = spFaasCold
			}
			tr.record(span{trace: trace, id: faasID, parent: id, start: link.hEnd - lat, end: link.hEnd, name: kind})
		}
		link.invokeID, link.hEnd = 0, 0
	}
}

// handlerSpan opens the handler span of a traced op: the trace id rides in
// the payload's first 8 bytes. It returns the span's id, parent and the
// link to report the handler's end to.
func (in *gwInst) handlerSpan(payload []byte) (tr *tracer, trace, id, parent int64, link *gwLink) {
	tr = in.tr.Load()
	if tr == nil || len(payload) < 8 {
		return nil, 0, 0, 0, nil
	}
	trace = int64(binary.BigEndian.Uint64(payload))
	v, ok := in.links.Load(trace)
	if !ok {
		return nil, 0, 0, 0, nil
	}
	link = v.(*gwLink)
	parent = link.invokeID
	if parent == 0 {
		parent = link.root // async: the op's root
	}
	return tr, trace, tr.id(), parent, link
}

// renderHandler is the SeBS-webapp-shaped render: an indexed kvdb read,
// a 4 KiB blob get and a JSON encode.
func (in *gwInst) renderHandler(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("render: %d-byte payload has no trace stamp", len(payload))
	}
	tr, trace, hid, parent, link := in.handlerSpan(payload)
	on := tr != nil
	hs := tr.nowIf(on)
	td := in.tdata[ctx.Tenant]
	pr := td.byPK[string(payload[8:])]
	if pr == nil {
		return nil, fmt.Errorf("render: no product %q", payload[8:])
	}
	var out renderOut
	err := in.p.DB.RunTxn(func(tx *kvdb.Txn) error {
		row, ok, err := tx.Get(td.table, pr.pk)
		if err != nil || !ok {
			return fmt.Errorf("product %s: ok=%v %v", pr.pk, ok, err)
		}
		pks, err := tx.IndexLookup(td.table, "category", row["category"])
		if err != nil {
			return err
		}
		out = renderOut{Product: pr.pk, Category: row["category"], Price: row["price"], Siblings: len(pks)}
		return nil
	})
	s := tr.recordIf(on, trace, hid, spKvRead, hs)
	if err != nil {
		return nil, err
	}
	asset, _, err := in.p.Blob.Get(td.bucket, pr.assetKey)
	tr.recordIf(on, trace, hid, spBlobGet, s)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(asset)
	out.AssetFNV = h.Sum64()
	b, err := json.Marshal(out)
	if on {
		link.hEnd = tr.now()
		tr.record(span{trace: trace, id: hid, parent: parent, start: hs, end: link.hEnd, name: spHandler})
	}
	return b, err
}

// echoHandler returns its payload (the echo and bulk functions).
func (in *gwInst) echoHandler(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	if tr, trace, hid, parent, link := in.handlerSpan(payload); tr != nil {
		hs := tr.now()
		link.hEnd = tr.now()
		tr.record(span{trace: trace, id: hid, parent: parent, start: hs, end: link.hEnd, name: spHandler})
	}
	return payload, nil
}

func (in *gwInst) loop(more func(*gwClient) bool) {
	var wg sync.WaitGroup
	for _, cl := range in.cls {
		wg.Add(1)
		go func(cl *gwClient) {
			defer wg.Done()
			for more(cl) {
				in.step(cl)
			}
		}(cl)
	}
	wg.Wait()
}

// call runs one gateway.Client call as a client.roundtrip span.
func (in *gwInst) call(cl *gwClient, tr *tracer, root int64, fn func() error) error {
	if !cl.traced {
		return fn()
	}
	cl.parent = tr.id()
	s := tr.now()
	err := fn()
	tr.record(span{trace: cl.trace, id: cl.parent, parent: root, start: s, end: tr.now(), name: spRoundtrip})
	return err
}

func (in *gwInst) step(cl *gwClient) {
	ops := in.w.ops[cl.idx]
	op := ops[cl.next%len(ops)]
	cl.next++
	cl.seq++
	tr := in.tr.Load()
	cl.traced = tr != nil
	var root int64
	cl.trace = int64(cl.idx)<<48 | int64(cl.seq)
	if cl.traced {
		root = tr.id()
		in.links.Store(cl.trace, &gwLink{root: root})
	}
	api := cl.api[op.tenant]
	start := time.Now()
	err := in.runOp(cl, tr, root, api, op)
	end := time.Now()
	if cl.traced {
		in.links.Delete(cl.trace)
		tr.record(span{trace: cl.trace, id: root, start: tr.at(start), end: tr.at(end), name: spOp})
	}
	cl.log.done(start, end, err)
}

func (in *gwInst) runOp(cl *gwClient, tr *tracer, root int64, api *gateway.Client, op gwOp) error {
	tn := in.tns[op.tenant]
	switch op.kind {
	case gwRender:
		payload := cl.render[op.idx]
		binary.BigEndian.PutUint64(payload, uint64(cl.trace))
		var res gateway.InvokeResult
		err := in.call(cl, tr, root, func() (err error) { res, err = api.Invoke("render", payload); return })
		if err != nil {
			return fmt.Errorf("%s render: %w", tn, err)
		}
		cl.invokes[op.tenant]++
		if !bytes.Equal(res.Output, in.w.expected[op.tenant][op.idx]) {
			return fmt.Errorf("%s render %d: %w", tn, op.idx, errMismatch)
		}
	case gwEcho, gwBulk:
		fn, payload := "echo", cl.echo[op.idx]
		if op.kind == gwBulk {
			fn, payload = "bulk", cl.bulk[op.idx]
		}
		binary.BigEndian.PutUint64(payload, uint64(cl.trace))
		var res gateway.InvokeResult
		err := in.call(cl, tr, root, func() (err error) { res, err = api.Invoke(fn, payload); return })
		if err != nil {
			return fmt.Errorf("%s %s: %w", tn, fn, err)
		}
		cl.invokes[op.tenant]++
		if !bytes.Equal(res.Output, payload) {
			return fmt.Errorf("%s %s: %w", tn, fn, errMismatch)
		}
	case gwAsync:
		payload := cl.render[op.idx]
		binary.BigEndian.PutUint64(payload, uint64(cl.trace))
		var id string
		err := in.call(cl, tr, root, func() (err error) { id, err = api.InvokeAsync("render", payload); return })
		if err != nil {
			return fmt.Errorf("%s async submit: %w", tn, err)
		}
		cl.asyncs++
		var st gateway.InvocationStatus
		for polls := 0; ; polls++ {
			if polls == gwMaxPolls {
				return fmt.Errorf("%s async %s: still pending after %d polls", tn, id, polls)
			}
			err = in.call(cl, tr, root, func() (err error) { st, err = api.Invocation(id); return })
			cl.polls++
			if err != nil {
				return fmt.Errorf("%s async poll %s: %w", tn, id, err)
			}
			if st.Status != "pending" {
				break
			}
		}
		cl.invokes[op.tenant]++
		if st.Status != "succeeded" || !bytes.Equal(st.Output, in.w.expected[op.tenant][op.idx]) {
			return fmt.Errorf("%s async %s: status %s: %w", tn, id, st.Status, errMismatch)
		}
	case gwControl:
		cl.ctlN++
		name := "ctl-" + strconv.Itoa(cl.idx) + "-" + strconv.Itoa(cl.ctlN)
		if err := in.call(cl, tr, root, func() error { return api.Register(gwSpec(name, "bench-echo")) }); err != nil {
			return fmt.Errorf("%s register %s: %w", tn, name, err)
		}
		payload := cl.echo[op.idx]
		binary.BigEndian.PutUint64(payload, uint64(cl.trace))
		var res gateway.InvokeResult
		err := in.call(cl, tr, root, func() (err error) { res, err = api.Invoke(name, payload); return })
		if err != nil {
			return fmt.Errorf("%s cold invoke %s: %w", tn, name, err)
		}
		cl.invokes[op.tenant]++
		if !res.Cold || !bytes.Equal(res.Output, payload) {
			return fmt.Errorf("%s cold invoke %s: cold=%v: %w", tn, name, res.Cold, errMismatch)
		}
		var list []gateway.FunctionSummary
		if err := in.call(cl, tr, root, func() (err error) { list, err = api.List(); return }); err != nil {
			return fmt.Errorf("%s list: %w", tn, err)
		}
		found := false
		for _, f := range list {
			found = found || f.Name == name
		}
		if !found {
			return fmt.Errorf("%s list: %s missing", tn, name)
		}
		if err := in.call(cl, tr, root, func() error { return api.Delete(name) }); err != nil {
			return fmt.Errorf("%s delete %s: %w", tn, name, err)
		}
	}
	return nil
}

func (in *gwInst) run(d time.Duration, tr *tracer) *phase {
	n := int64(gwOpsPerSecond * d.Seconds())
	for _, cl := range in.cls {
		cl.log.reset(int(n))
	}
	in.tr.Store(tr)
	start := time.Now()
	for _, cl := range in.cls {
		cl.log.t0 = start
	}
	in.loop(func(cl *gwClient) bool { return cl.log.ops < n })
	in.tr.Store(nil)

	ph := &phase{t0: start, counts: map[string]float64{}}
	var asyncs, polls int64
	for _, cl := range in.cls {
		ph.merge(&cl.log)
		asyncs += cl.asyncs
		polls += cl.polls
	}
	if asyncs > 0 {
		ph.counts["gateway.polls_per_async"] = float64(polls) / float64(asyncs)
	}
	in.checkTotals(ph)
	return ph
}

// checkTotals compares each tenant's invoice, fetched over the API, with the
// invocations the clients completed (warm-up included).
func (in *gwInst) checkTotals(ph *phase) {
	var inv, cold int64
	for t, tn := range in.tns {
		var want int64
		for _, cl := range in.cls {
			want += cl.invokes[t]
		}
		invoice, err := in.cls[0].api[t].Invoice(tn)
		if err != nil {
			ph.fail("invoice %s: %v", tn, err)
		} else if got := invoiceRequests(invoice); got != want {
			ph.fail("tenant %s: invoice bills %d invocations, clients completed %d", tn, got, want)
		}
		for _, fn := range []string{"render", "echo", "bulk"} {
			st, err := in.p.Tenant(tn).Stats(fn)
			if err != nil {
				ph.fail("stats %s/%s: %v", tn, fn, err)
				continue
			}
			inv += st.Invocations
			cold += st.ColdStarts
		}
	}
	if inv > 0 {
		ph.counts["faas.warm_ratio"] = float64(inv-cold) / float64(inv)
	}
}

// invoiceRequests is the invocation count an invoice bills.
func invoiceRequests(inv billing.Invoice) int64 {
	for _, l := range inv.Lines {
		if l.Resource == billing.ResInvocationReqs {
			return int64(l.Units + 0.5)
		}
	}
	return 0
}

func (w *gatewayMix) layers(ph *phase, st *spanStats, out map[string]float64, samples map[string]int) {
	spanLayers(st, out, samples)
	for k, v := range ph.counts {
		out[k] = v
	}
}
