package conform

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/blob"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/jiffy"
	"repro/internal/kvdb"
	"repro/internal/pulsar"
)

// Env is the effect surface handlers under conformance test write through.
// Every mutating operation crosses a named chaos.Crasher boundary after it
// takes effect, which is what gives the explorer its crash points: arming the
// crasher at boundary k models a function instance dying with effects 1..k
// already persisted — exactly the crash-after-effect rule of Jangda et al.'s
// operational semantics. Reads cross no boundary (a crash before or after a
// read is the same crash).
type Env struct {
	// P is the per-run platform; handlers may reach past the wrappers for
	// reads or setup, but mutations outside the wrappers are invisible to
	// the crash explorer.
	P *core.Platform
	// Crasher is the run's fault point; wrappers cross it, Setup code and
	// verification reads never do.
	Crasher *chaos.Crasher
	// Tenant owns every resource the run creates.
	Tenant string

	ns   *jiffy.Namespace
	prod *pulsar.Producer
}

// Standard per-run resource names. Every run provisions the same fixture so
// digests are comparable across runs: one jiffy namespace, one kvdb table,
// one blob bucket, and (for sink workloads) one topic with one durable
// subscription.
const (
	envTenant   = "acme"
	envFunction = "fn"
	envTable    = "t"
	envBucket   = "b"
	envNS       = "/conform"
	SinkSub     = "sink"
)

// JiffyPut writes a key into the run's namespace; boundary "jiffy:put:<key>".
func (e *Env) JiffyPut(key string, value []byte) error {
	if err := e.ns.Put(key, value); err != nil {
		return err
	}
	e.Crasher.Boundary("jiffy:put:" + key)
	return nil
}

// JiffyGetInt reads a key as a decimal integer, 0 when absent. No boundary.
func (e *Env) JiffyGetInt(key string) (int, error) {
	v, err := e.ns.Get(key)
	if errors.Is(err, jiffy.ErrNoKey) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(v))
	if err != nil {
		return 0, err
	}
	return n, nil
}

// JiffyEnqueue appends to the namespace FIFO; boundary "jiffy:enqueue".
func (e *Env) JiffyEnqueue(item []byte) error {
	if err := e.ns.Enqueue(item); err != nil {
		return err
	}
	e.Crasher.Boundary("jiffy:enqueue")
	return nil
}

// KVTxn runs fn as a kvdb transaction (first-committer-wins snapshot
// isolation, conflicts re-executed by RunTxn); boundary "kvdb:txn" after the
// commit. The transaction is one effect, not one per write: commit is atomic,
// so a crash cannot land between two writes of the same transaction — the
// checked form of the database's transparent re-execution claim.
func (e *Env) KVTxn(fn func(tx *kvdb.Txn) error) error {
	if err := e.P.DB.RunTxn(fn); err != nil {
		return err
	}
	e.Crasher.Boundary("kvdb:txn")
	return nil
}

// BlobPut writes an object; boundary "blob:put:<key>".
func (e *Env) BlobPut(key string, data []byte) error {
	if _, err := e.P.Blob.Put(envBucket, key, data, blob.PutOptions{}); err != nil {
		return err
	}
	e.Crasher.Boundary("blob:put:" + key)
	return nil
}

// Publish sends to the workload's sink topic; boundary "pulsar:publish".
func (e *Env) Publish(payload []byte) error {
	if e.prod == nil {
		return fmt.Errorf("conform: workload has no SinkTopic")
	}
	if _, err := e.prod.Send(pulsar.ProducerMessage{Payload: payload}); err != nil {
		return err
	}
	e.Crasher.Boundary("pulsar:publish")
	return nil
}

// setup provisions the standard fixture on a fresh platform.
func (e *Env) setup(w Workload) error {
	ns, err := e.P.Jiffy.CreateNamespace(envNS, jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 2})
	if err != nil {
		return err
	}
	e.ns = ns
	if err := e.P.DB.CreateTable(envTable, e.Tenant); err != nil {
		return err
	}
	if err := e.P.Blob.CreateBucket(envBucket, e.Tenant); err != nil {
		return err
	}
	if w.SinkTopic != "" {
		if err := e.P.Pulsar.CreateTopic(w.SinkTopic, 0); err != nil {
			return err
		}
		if e.prod, err = e.P.Pulsar.CreateProducer(w.SinkTopic); err != nil {
			return err
		}
	}
	if w.Setup != nil {
		return w.Setup(e)
	}
	return nil
}
