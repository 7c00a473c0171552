package jiffy

import (
	"fmt"
	"sort"

	"repro/internal/blob"
)

// This file is Jiffy's failure plane: memory-node fail-stop crashes, the
// eviction/re-replication sweep that repairs block replica sets, and
// checkpoint/rematerialize against the flush tier for state that was lost
// outright. The lock order everywhere is ns.mu → c.mu (DESIGN.md §6): the
// crash sweep therefore snapshots the namespace list under c.mu, releases
// it, and repairs each namespace under that namespace's own lock.

// NodeIDs returns the registered memory-node ids in registration order.
func (c *Controller) NodeIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.ID
	}
	return out
}

// CrashNode fail-stops a memory node: its block storage vanishes from the
// pool. Every block group that held a replica there is repaired — surviving
// replicas adopt a slot on a fresh live node (restoring the namespace's
// replica count at no data cost, since replicas share the resident map) —
// and groups with no surviving replica are marked lost: their keys are gone
// and data ops against them degrade to ErrNodeDown until the namespace
// rematerializes. Returns (blocks repaired, block groups lost).
func (c *Controller) CrashNode(id string) (repaired, lost int, err error) {
	start := c.clock.Now()
	c.mu.Lock()
	var node *MemoryNode
	for _, n := range c.nodes {
		if n.ID == id {
			node = n
		}
	}
	if node == nil {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %q", ErrNoNode, id)
	}
	if node.down.Load() {
		c.mu.Unlock()
		return 0, 0, nil
	}
	node.down.Store(true)
	node.free = nil
	node.inUse = 0
	victims := make([]*Namespace, 0, len(c.all))
	for _, ns := range c.all {
		victims = append(victims, ns)
	}
	c.mu.Unlock()
	sort.Slice(victims, func(i, j int) bool { return victims[i].path < victims[j].path })

	for _, ns := range victims {
		r, l := ns.evictNode(node)
		repaired += r
		lost += l
	}
	c.obsNodesDown.Add(1)
	c.obsRecoveries.Add(int64(repaired))
	c.obsBlocksLost.Add(int64(lost))
	c.obsRecoveryTime.Observe(c.clock.Now().Sub(start))
	return repaired, lost, nil
}

// RestartNode brings a crashed node back, empty: its previous contents are
// gone (the fail-stop model), but its capacity rejoins the pool.
func (c *Controller) RestartNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.ID == id {
			if n.down.Load() {
				n.down.Store(false)
				c.obsNodesDown.Add(-1)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrNoNode, id)
}

// evictNode removes a crashed node from every block group of this namespace,
// re-replicating groups that still have a live replica and marking the rest
// lost. Holds ns.mu; allocation of replacement slots takes c.mu inside.
func (ns *Namespace) evictNode(node *MemoryNode) (repaired, lost int) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.dead {
		return 0, 0
	}
	for _, b := range ns.blocks {
		idx := -1
		for i, n := range b.nodes {
			if n == node {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		b.nodes = append(b.nodes[:idx], b.nodes[idx+1:]...)
		if len(b.nodes) > 0 {
			// Survivors keep serving; adopt a slot on a fresh node so the
			// replica count recovers before the next crash.
			if repl := ns.ctrl.replacementSlot(b.nodes); repl != nil {
				b.nodes = append(b.nodes, repl)
			}
			repaired++
			continue
		}
		clear(b.kv)
		b.used = 0
		b.lost = true
		ns.lostBlocks++
		lost++
	}
	// The FIFO's bytes are attributed to the namespace's first block group;
	// losing that group loses the queue.
	if lost > 0 && len(ns.blocks) > 0 && ns.blocks[0].lost {
		ns.fifo, ns.fifoUsed = nil, 0
	}
	return repaired, lost
}

// replacementSlot reserves one block slot on the live node with the most
// free capacity, excluding nodes already in the replica set. Returns nil
// when the pool has no spare capacity (the group stays degraded).
func (c *Controller) replacementSlot(exclude []*MemoryNode) *MemoryNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *MemoryNode
	for _, n := range c.nodes {
		if n.Free() <= 0 || containsNode(exclude, n) {
			continue
		}
		if best == nil || n.Free() > best.Free() {
			best = n
		}
	}
	if best != nil {
		best.inUse++
		c.obsAlloc.Inc()
		c.obsInUse.Add(1)
	}
	return best
}

// Checkpoint persists the namespace's current KV contents to the flush
// tier, making a later Rematerialize lossless for the checkpointed keys.
// Returns the number of pairs written. The blob writes sleep on the clock
// and run outside every store lock.
func (ns *Namespace) Checkpoint() (int, error) {
	c := ns.ctrl
	c.mu.Lock()
	target := c.flush
	c.mu.Unlock()
	if target.Store == nil {
		return 0, ErrNoFlush
	}
	if err := ns.lockLive(c.clock.Now()); err != nil {
		return 0, err
	}
	type pair struct {
		key string
		val []byte
	}
	var pairs []pair
	for _, b := range ns.blocks {
		for k, v := range b.kv {
			pairs = append(pairs, pair{k, append([]byte(nil), v...)})
		}
	}
	ns.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	for _, p := range pairs {
		if _, err := target.Store.Put(target.Bucket, FlushKey(ns.path, p.key), p.val, blob.PutOptions{}); err != nil {
			return 0, err
		}
	}
	return len(pairs), nil
}

// Rematerialize repairs a namespace degraded by block loss: every lost
// group gets a fresh replica set on live nodes, and keys previously
// persisted to the flush tier (Checkpoint, or FlushOnExpiry of an earlier
// incarnation) are reloaded into the groups that lost them. Keys that were
// never flushed are gone — the fail-stop cost the paper's lease/flush
// machinery exists to bound. Returns the number of keys restored.
func (ns *Namespace) Rematerialize() (int, error) {
	c := ns.ctrl
	start := c.clock.Now()
	c.mu.Lock()
	target := c.flush
	c.mu.Unlock()

	if err := ns.lockLive(c.clock.Now()); err != nil {
		return 0, err
	}
	if ns.lostBlocks == 0 {
		ns.mu.Unlock()
		return 0, nil
	}
	// Phase 1: give every lost group fresh storage so the namespace is
	// writable again, remembering which partitions need reloading.
	restoredIdx := map[int]bool{}
	for i, b := range ns.blocks {
		if !b.lost {
			continue
		}
		nb, err := c.allocBlock(ns.replicas)
		if err != nil {
			ns.mu.Unlock()
			return 0, err
		}
		nb.kv, nb.used = b.kv, 0 // reuse the (cleared) resident map
		if nb.kv == nil {
			nb.kv = map[string][]byte{}
		}
		ns.blocks[i] = nb
		restoredIdx[i] = true
	}
	ns.lostBlocks = 0
	nblocks := len(ns.blocks)
	ns.mu.Unlock()

	// Phase 2: read the flushed keys back, outside every lock (blob ops
	// sleep on the clock).
	restored := 0
	if target.Store != nil {
		keys, err := ListFlushed(target, ns.path)
		if err == nil {
			for _, key := range keys {
				if !restoredIdx[int(hashKey(key))%nblocks] {
					continue // partition survived; do not resurrect deletes
				}
				val, err := Flushed(target, ns.path, key)
				if err != nil {
					continue
				}
				if err := ns.Put(key, val); err == nil {
					restored++
				}
			}
		}
	}
	c.obsRecoveries.Inc()
	c.obsRecoveryTime.Observe(c.clock.Now().Sub(start))
	return restored, nil
}
