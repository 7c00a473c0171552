package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/kvdb"
	"repro/internal/orchestrate"
)

// invoke-state: a closed loop of client goroutines calling
// core.TenantHandle.Invoke in process over 4 tenants × 8 functions (5 state
// functions and 3 chain steps). A state handler writes then reads 256 B in
// the tenant's Jiffy namespace and runs one kvdb transaction: a write on a
// Zipf-chosen row for 20% of ops, a read otherwise. 5% of ops run a 3-step
// orchestrate.Chain; 0.5% register, invoke (cold) and unregister a function.

const (
	isTenants     = 4
	isStateFns    = 5
	isJiffyKeys   = 4096 // per tenant, split evenly between clients
	isKvRows      = 1024 // per tenant
	isValueSize   = 256
	isChainSize   = 32
	isOpsPerClnt  = 1 << 16 // generated ops per client, replayed cyclically
	isWarmupOps   = 6000    // per client, during setup
	isTraceSample = 16      // traced runs record spans for every 16th state op
	// isOpsPerSecond sizes the measured phase: each client runs this many
	// ops per second of --seconds, about what the seed code completes on a
	// 2-CPU VM. Every run does the same work, so figures that grow with the
	// op count (kvdb row versions in the heap) compare across commits.
	isOpsPerSecond = 55000
)

// isFnConfig is every function's config: the smallest modelled start
// latencies (zero would select the 250 ms / 1 ms defaults).
var isFnConfig = faas.Config{ColdStart: time.Nanosecond, WarmStart: time.Nanosecond}

const (
	isOpState uint8 = iota
	isOpChain
	isOpCold
)

type isOp struct {
	kind   uint8
	write  bool
	tenant uint8
	fn     uint8
	key    uint16 // index into the client's half of the Jiffy keys
	row    uint16 // kvdb row, Zipf-distributed
	val    uint16 // index into the value (or chain input) pool
}

type invokeState struct {
	cfg     config
	ops     [][]isOp
	values  [][]byte
	chainIn [][]byte
}

func newInvokeState(cfg config) benchWorkload {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &invokeState{cfg: cfg}
	for i := 0; i < 256; i++ {
		v := make([]byte, isValueSize)
		rng.Read(v)
		w.values = append(w.values, v)
		c := make([]byte, isChainSize)
		rng.Read(c)
		w.chainIn = append(w.chainIn, c)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, isKvRows-1)
	half := isJiffyKeys / cfg.clients
	for c := 0; c < cfg.clients; c++ {
		ops := make([]isOp, isOpsPerClnt)
		for i := range ops {
			op := isOp{
				tenant: uint8(rng.Intn(isTenants)),
				fn:     uint8(rng.Intn(isStateFns)),
				key:    uint16(rng.Intn(half)),
				row:    uint16(zipf.Uint64()),
				val:    uint16(rng.Intn(len(w.values))),
			}
			switch r := rng.Float64(); {
			case r < 0.005:
				op.kind = isOpCold
			case r < 0.055:
				op.kind = isOpChain
			default:
				op.write = rng.Float64() < 0.20
			}
			ops[i] = op
		}
		w.ops = append(w.ops, ops)
	}
	return w
}

type isTenant struct {
	h      *core.TenantHandle
	ns     *jiffy.Namespace
	table  string
	keys   []string
	rows   []string
	states [isStateFns]string
	chain  orchestrate.State
}

type isClient struct {
	idx     int
	next    int // index of the next op in the cyclic op list
	seq     uint64
	cur     *isOp
	payload [9]byte // client index + op sequence number
	value   []byte

	// Per-op trace state the handler reads (same goroutine: faas runs the
	// handler on the invoking goroutine).
	traced       bool
	trace        int64
	parent       int64
	handlerEnd   int64
	txnRuns      int64
	writeTxns    int64
	coldN        int
	invokes      [isTenants]int64
	writes       [isTenants]int64
	log          opLog
	chainScratch []byte
}

type isInst struct {
	w       *invokeState
	p       *core.Platform
	tenants []*isTenant
	clients []*isClient
	tr      *tracer
}

func (w *invokeState) setup() (instance, error) {
	p := core.New(core.Options{
		JiffyLatency: jiffy.NoLatency,
		BlobLatency:  blobNoLatency,
	})
	in := &isInst{w: w, p: p}
	for ti := 0; ti < isTenants; ti++ {
		name := fmt.Sprintf("tenant-%d", ti)
		t := &isTenant{h: p.Tenant(name), table: "rows-" + name}
		ns, err := p.Jiffy.CreateNamespace("/"+name, jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 32})
		if err != nil {
			return nil, err
		}
		t.ns = ns
		for k := 0; k < isJiffyKeys; k++ {
			t.keys = append(t.keys, fmt.Sprintf("k%04d", k))
			if err := ns.Put(t.keys[k], w.values[k%len(w.values)]); err != nil {
				return nil, fmt.Errorf("seed jiffy: %w", err)
			}
		}
		if err := p.DB.CreateTable(t.table, name); err != nil {
			return nil, err
		}
		for r := 0; r < isKvRows; r++ {
			t.rows = append(t.rows, fmt.Sprintf("r%04d", r))
		}
		if err := p.DB.RunTxn(func(tx *kvdb.Txn) error {
			for _, pk := range t.rows {
				if err := tx.Put(t.table, pk, kvdb.Row{"n": "0"}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("seed kvdb: %w", err)
		}
		for f := 0; f < isStateFns; f++ {
			t.states[f] = fmt.Sprintf("state-%d", f)
			if err := t.h.Register(t.states[f], in.stateHandler(t), isFnConfig); err != nil {
				return nil, err
			}
		}
		var steps []orchestrate.State
		for s, step := range chainSteps {
			fn := fmt.Sprintf("step-%d", s+1)
			if err := t.h.Register(fn, in.stepHandler(step), isFnConfig); err != nil {
				return nil, err
			}
			steps = append(steps, orchestrate.Task(name+"/"+fn))
		}
		t.chain = orchestrate.Chain(steps...)
		in.tenants = append(in.tenants, t)
	}
	for c := 0; c < w.cfg.clients; c++ {
		cl := &isClient{idx: c, value: make([]byte, isValueSize), chainScratch: make([]byte, isChainSize)}
		cl.payload[0] = byte(c)
		in.clients = append(in.clients, cl)
	}
	// Warm-up: fills the instance pools, the platform tracer's retention
	// buffer and the kvdb version chains' first growth.
	for _, cl := range in.clients {
		cl.log.reset(isWarmupOps)
		cl.log.t0 = time.Now()
	}
	in.loop(func(cl *isClient) bool { return cl.log.ops < isWarmupOps }, nil)
	for _, cl := range in.clients {
		if cl.log.failed > 0 {
			return nil, fmt.Errorf("warm-up failed: %v", cl.log.problems)
		}
	}
	return in, nil
}

// chainSteps are the three chain functions; each keeps byte 0 (the client
// index) and transforms the rest, so the chain output is checkable.
var chainSteps = []func(in []byte) []byte{
	func(in []byte) []byte { // reverse
		out := make([]byte, len(in))
		out[0] = in[0]
		for i := 1; i < len(in); i++ {
			out[i] = in[len(in)-i]
		}
		return out
	},
	func(in []byte) []byte { // add one
		out := make([]byte, len(in))
		out[0] = in[0]
		for i := 1; i < len(in); i++ {
			out[i] = in[i] + 1
		}
		return out
	},
	func(in []byte) []byte { // xor
		out := make([]byte, len(in))
		out[0] = in[0]
		for i := 1; i < len(in); i++ {
			out[i] = in[i] ^ 0x5a
		}
		return out
	},
}

func (in *isInst) close() {}

// loop runs every client goroutine until more returns false, then waits.
func (in *isInst) loop(more func(*isClient) bool, tr *tracer) {
	in.tr = tr
	var wg sync.WaitGroup
	for _, cl := range in.clients {
		wg.Add(1)
		go func(cl *isClient) {
			defer wg.Done()
			for more(cl) {
				in.step(cl)
			}
		}(cl)
	}
	wg.Wait()
}

var errMismatch = errors.New("output mismatch")

// step runs one op and records its latency.
func (in *isInst) step(cl *isClient) {
	ops := in.w.ops[cl.idx]
	op := &ops[cl.next%len(ops)]
	cl.next++
	cl.seq++
	cl.cur = op
	binary.BigEndian.PutUint64(cl.payload[1:], cl.seq)
	t := in.tenants[op.tenant]
	tr := in.tr
	cl.traced = tr != nil && (op.kind != isOpState || cl.seq%isTraceSample == 0)
	var root int64
	if cl.traced {
		cl.trace = int64(cl.idx)<<48 | int64(cl.seq)
		root = tr.id()
	}
	start := time.Now()
	var err error
	switch op.kind {
	case isOpState:
		err = in.invoke(cl, t, t.states[op.fn], cl.payload[:], root, false)
	case isOpChain:
		err = in.runChain(cl, t, op, root)
	case isOpCold:
		err = in.coldCycle(cl, t, root)
	}
	end := time.Now()
	cl.log.done(start, end, err)
	if cl.traced {
		tr.record(span{trace: cl.trace, id: root, start: tr.at(start), end: tr.at(end), name: spOp})
	}
}

// invoke calls TenantHandle.Invoke and checks the handler's echo of the op
// sequence number; cold demands the invocation paid a cold start.
func (in *isInst) invoke(cl *isClient, t *isTenant, fn string, payload []byte, parent int64, cold bool) error {
	tr := in.tr
	var coreID, faasID int64
	var s0 time.Time
	if cl.traced {
		coreID, faasID = tr.id(), tr.id()
		cl.parent = faasID
		s0 = time.Now()
	}
	res, err := t.h.Invoke(fn, payload)
	if cl.traced {
		e0 := time.Now()
		tr.record(span{trace: cl.trace, id: coreID, parent: parent, start: tr.at(s0), end: tr.at(e0), name: spCoreInvoke})
		if err == nil {
			name := spFaasInvoke
			if res.Cold {
				name = spFaasCold
			}
			tr.record(span{trace: cl.trace, id: faasID, parent: coreID, start: cl.handlerEnd - int64(res.Latency), end: cl.handlerEnd, name: name})
		}
	}
	if err != nil {
		return fmt.Errorf("invoke %s/%s: %w", t.h.Name(), fn, err)
	}
	cl.invokes[cl.cur.tenant]++
	if cold && !res.Cold {
		return fmt.Errorf("invoke %s/%s: cold=%v", t.h.Name(), fn, res.Cold)
	}
	if !bytes.Equal(res.Output, payload[1:9]) {
		return fmt.Errorf("invoke %s/%s: %w", t.h.Name(), fn, errMismatch)
	}
	return nil
}

func (in *isInst) runChain(cl *isClient, t *isTenant, op *isOp, root int64) error {
	input := cl.chainScratch
	copy(input, in.w.chainIn[op.val])
	input[0] = byte(cl.idx)
	tr := in.tr
	var id int64
	var s0 time.Time
	if cl.traced {
		id = tr.id()
		cl.parent = id
		s0 = time.Now()
	}
	out, err := in.p.Orchestrator.Execute(t.chain, input)
	if cl.traced {
		tr.record(span{trace: cl.trace, id: id, parent: root, start: tr.at(s0), end: tr.now(), name: spChain})
	}
	if err != nil {
		return fmt.Errorf("chain %s: %w", t.h.Name(), err)
	}
	cl.invokes[op.tenant] += int64(len(chainSteps))
	want := input
	for _, s := range chainSteps {
		want = s(want)
	}
	if !bytes.Equal(out, want) {
		return fmt.Errorf("chain %s: %w", t.h.Name(), errMismatch)
	}
	return nil
}

// coldCycle registers a fresh function, invokes it (a cold start) and
// unregisters it.
func (in *isInst) coldCycle(cl *isClient, t *isTenant, root int64) error {
	cl.coldN++
	name := "cold-" + strconv.Itoa(cl.idx) + "-" + strconv.Itoa(cl.coldN)
	if err := t.h.Register(name, in.stateHandler(t), isFnConfig); err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	err := in.invoke(cl, t, name, cl.payload[:], root, true)
	if uerr := t.h.Unregister(name); uerr != nil && err == nil {
		err = fmt.Errorf("unregister %s: %w", name, uerr)
	}
	return err
}

// stateHandler writes then reads the client's op value in the tenant's
// Jiffy namespace and runs one kvdb transaction. It returns the op
// sequence number from the payload.
func (in *isInst) stateHandler(t *isTenant) faas.Handler {
	return func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		cl := in.clients[payload[0]]
		op := cl.cur
		tr := in.tr
		var hid, hs int64
		if cl.traced {
			hid, hs = tr.id(), tr.now()
		}
		val := cl.value
		copy(val, in.w.values[op.val])
		binary.BigEndian.PutUint64(val, cl.seq)
		key := t.keys[cl.idx*(isJiffyKeys/len(in.clients))+int(op.key)]

		s := tr.nowIf(cl.traced)
		err := t.ns.Put(key, val)
		s = tr.recordIf(cl.traced, cl.trace, hid, spJiffyPut, s)
		if err != nil {
			return nil, fmt.Errorf("jiffy put: %w", err)
		}
		got, err := t.ns.Get(key)
		s = tr.recordIf(cl.traced, cl.trace, hid, spJiffyGet, s)
		if err != nil {
			return nil, fmt.Errorf("jiffy get: %w", err)
		}
		if !bytes.Equal(got, val) {
			return nil, fmt.Errorf("jiffy get %s: not the value of the preceding put", key)
		}

		pk := t.rows[op.row]
		if op.write {
			err = in.p.DB.RunTxn(func(tx *kvdb.Txn) error {
				cl.txnRuns++
				row, ok, err := tx.Get(t.table, pk)
				if err != nil || !ok {
					return fmt.Errorf("row %s: ok=%v %v", pk, ok, err)
				}
				n, _ := strconv.Atoi(row["n"])
				return tx.Put(t.table, pk, kvdb.Row{"n": strconv.Itoa(n + 1)})
			})
			tr.recordIf(cl.traced, cl.trace, hid, spKvWrite, s)
			if err == nil {
				cl.writeTxns++
				cl.writes[op.tenant]++
			}
		} else {
			err = in.p.DB.RunTxn(func(tx *kvdb.Txn) error {
				_, ok, err := tx.Get(t.table, pk)
				if err != nil || !ok {
					return fmt.Errorf("row %s: ok=%v %v", pk, ok, err)
				}
				return nil
			})
			tr.recordIf(cl.traced, cl.trace, hid, spKvRead, s)
		}
		if err != nil {
			return nil, fmt.Errorf("kvdb: %w", err)
		}
		if cl.traced {
			cl.handlerEnd = tr.now()
			tr.record(span{trace: cl.trace, id: hid, parent: cl.parent, start: hs, end: cl.handlerEnd, name: spHandler})
		}
		return payload[1:9], nil
	}
}

// stepHandler wraps one chain step as a faas handler.
func (in *isInst) stepHandler(step func([]byte) []byte) faas.Handler {
	return func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		cl := in.clients[payload[0]]
		if !cl.traced {
			return step(payload), nil
		}
		tr := in.tr
		hs := tr.now()
		out := step(payload)
		tr.record(span{trace: cl.trace, id: tr.id(), parent: cl.parent, start: hs, end: tr.now(), name: spHandler})
		return out, nil
	}
}

func (in *isInst) run(d time.Duration, tr *tracer) *phase {
	n := int64(isOpsPerSecond * d.Seconds())
	for _, cl := range in.clients {
		cl.log.reset(int(n))
	}
	start := time.Now()
	for _, cl := range in.clients {
		cl.log.t0 = start
	}
	in.loop(func(cl *isClient) bool { return cl.log.ops < n }, tr)
	in.tr = nil

	ph := &phase{t0: start, counts: map[string]float64{}}
	var runs, writes int64
	for _, cl := range in.clients {
		ph.merge(&cl.log)
		runs += cl.txnRuns
		writes += cl.writeTxns
	}
	if writes > 0 {
		ph.counts["kvdb.attempts_per_commit"] = float64(runs) / float64(writes)
	}
	in.checkTotals(ph)
	return ph
}

// checkTotals compares each tenant's invoice and kvdb rows with the work
// the clients completed (warm-up included).
func (in *isInst) checkTotals(ph *phase) {
	var inv, cold int64
	for ti, t := range in.tenants {
		var invokes, writes int64
		for _, cl := range in.clients {
			invokes += cl.invokes[ti]
			writes += cl.writes[ti]
		}
		if got := invoiceRequests(t.h.Invoice()); got != invokes {
			ph.fail("tenant %s: invoice bills %d invocations, clients completed %d", t.h.Name(), got, invokes)
		}
		var sum int64
		if err := in.p.DB.RunTxn(func(tx *kvdb.Txn) error {
			sum = 0
			for _, pk := range t.rows {
				row, _, err := tx.Get(t.table, pk)
				if err != nil {
					return err
				}
				n, _ := strconv.Atoi(row["n"])
				sum += int64(n)
			}
			return nil
		}); err != nil {
			ph.fail("tenant %s: kvdb scan: %v", t.h.Name(), err)
		} else if sum != writes {
			ph.fail("tenant %s: kvdb counters sum to %d, %d write txns committed", t.h.Name(), sum, writes)
		}
		for _, fn := range t.states {
			st, err := t.h.Stats(fn)
			if err != nil {
				ph.fail("stats %s: %v", fn, err)
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

func (w *invokeState) layers(ph *phase, st *spanStats, out map[string]float64, samples map[string]int) {
	spanLayers(st, out, samples)
	for k, v := range ph.counts {
		out[k] = v
	}
}
