package remotestore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/future"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/service"
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("remotestore: not found")

// ErrOffline is returned when an operation needs the remote store but the
// client is offline and no local fallback exists.
var ErrOffline = errors.New("remotestore: offline")

// ErrNoQuorum is returned (wrapped) when a replicated write cannot reach
// its write quorum and the failure is not a connectivity loss that the
// offline queue can absorb.
var ErrNoQuorum = errors.New("remotestore: write quorum not reached")

// Store is the enhanced data store surface kb and docstore callers hold, so
// they need not care how many servers sit behind it — or whether a test or
// a benchmark has wrapped the Cluster.
type Store interface {
	Put(key string, value []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	Keys() ([]string, error)
	Sync() (int, error)
	SetOffline(offline bool)
	Offline() bool
	PendingWrites() int
}

// Stats counts client activity. RemotePuts and RemoteGets count per-node
// operations, so one replicated write at R=2 counts two puts; ReadFailovers
// counts reads served by a non-primary replica.
type Stats struct {
	RemoteGets    int64
	RemotePuts    int64
	CacheHits     int64
	OfflineWrites int64
	SyncedWrites  int64
	DroppedWrites int64
	BytesSent     int64
	ReadFailovers int64
}

// ClusterConfig configures the enhanced data store client. One node is a
// cluster like any other: Replicas and WriteQuorum clamp to 1 and every
// default below applies.
type ClusterConfig struct {
	// Nodes are the member store base URLs ("http://host:port"). The node
	// name used for placement, breakers, and metrics is the URL itself.
	Nodes []string
	// Replicas is R: how many nodes hold each key (primary + R-1
	// successors on the ring). 0 means 2; clamped to len(Nodes).
	Replicas int
	// WriteQuorum is W: how many replica acks a write waits for before
	// returning. 0 means R (fully synchronous); clamped to [1, R]. The
	// remaining R-W acks complete in the background and are observed as
	// replication lag.
	WriteQuorum int
	// VirtualNodes and Seed configure ring placement; every client of the
	// same cluster must use identical values. Zero VirtualNodes means
	// ring.DefaultVirtualNodes.
	VirtualNodes int
	Seed         uint64
	// Codec transforms values before upload (typically Chain{Gzip,
	// AESGCM}). Nil means Identity.
	Codec codec.Codec
	// CacheSize bounds the client-side read cache (entries); 0 disables
	// caching. CacheTTL expires cached reads; 0 means no expiry.
	CacheSize int
	CacheTTL  time.Duration
	// Local, if non-nil, mirrors every write locally so reads keep
	// working while disconnected (the paper's local storage service).
	Local kvstore.Store
	// Timeout bounds each attempt at a node, reading the reply included.
	// 0 or negative means 10 seconds.
	Timeout time.Duration
	// MaxPending caps the offline write-back queue (distinct keys).
	// 0 means DefaultMaxPending; negative means unbounded, for callers
	// that would rather grow than drop.
	MaxPending int
	// Breaker configures the per-node circuit breakers. Zero Threshold
	// means 4 consecutive transient failures with a 2s cooldown; negative
	// disables breaking.
	Breaker core.BreakerConfig
	// Retry is the per-node retry policy. Zero MaxAttempts means 2
	// attempts with 5ms full-jitter backoff.
	Retry failover.RetryPolicy
	// Workers bounds the fan-out pool. 0 means 2x node count (min 4).
	Workers int
	// Metrics, if non-nil, receives the cluster's instruments (per-node
	// request/error counters, fan-out and replication-lag histograms,
	// ring-membership and pending-write gauges).
	Metrics *metrics.Set
	// Clock drives breaker cooldowns and retry backoff; nil means real.
	Clock clock.Clock
}

// nodeAck is one replica's response to a fan-out write.
type nodeAck struct {
	node string
	err  error
	at   time.Duration // since fan-out start
}

// Cluster is the enhanced data store client: caching, codec, local mirror
// and offline write-back over N >= 1 store nodes with consistent-hash
// placement, R-way replicated writes, and read failover. The package
// comment states when it goes offline. It is safe for concurrent use.
type Cluster struct {
	replicas int
	quorum   int
	cdc      codec.Codec
	local    kvstore.Store
	clk      clock.Clock
	retry    failover.RetryPolicy
	breakers *core.BreakerSet // nil when breaking disabled
	pool     *future.Pool

	ring *ring.Ring

	rt      http.RoundTripper // shared by every node's transport
	timeout time.Duration
	nmu     sync.RWMutex
	nodes   map[string]*transport

	memcache *cache.Sharded[[]byte]

	mu      sync.Mutex
	offline bool
	queue   *writeQueue

	stats struct {
		remoteGets, remotePuts, cacheHits, offlineWrites, syncedWrites, bytesSent int64
		readFailovers                                                             int64
	}

	inst clusterInstruments
}

// clusterInstruments groups the cluster's metrics. Every field is nil-safe
// (a nil *metrics.Set yields inert instruments).
type clusterInstruments struct {
	set       *metrics.Set
	fanoutLat *metrics.Histogram
	replLag   *metrics.Histogram
	failovers *metrics.Counter
	dropped   *metrics.Counter
	ringNodes *metrics.Gauge
	pending   *metrics.Gauge

	mu       sync.Mutex
	requests map[string]*metrics.Counter
	errors   map[string]*metrics.Counter
}

func newClusterInstruments(set *metrics.Set) clusterInstruments {
	return clusterInstruments{
		set: set,
		fanoutLat: set.Histogram("cloudstore_fanout_latency_ns",
			"Time for a replicated write to reach its write quorum."),
		replLag: set.Histogram("cloudstore_replication_lag_ns",
			"First-ack to last-ack spread of a replicated write."),
		failovers: set.Counter("cloudstore_read_failovers_total",
			"Reads served by a non-primary replica after a primary failure."),
		dropped: set.Counter("cloudstore_dropped_writes_total",
			"Offline writes evicted from the full write-back queue."),
		ringNodes: set.Gauge("cloudstore_ring_nodes",
			"Current consistent-hash ring membership."),
		pending: set.Gauge("cloudstore_pending_writes",
			"Writes queued for synchronization."),
		requests: make(map[string]*metrics.Counter),
		errors:   make(map[string]*metrics.Counter),
	}
}

func (ci *clusterInstruments) forNode(node string) (req, errs *metrics.Counter) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if c, ok := ci.requests[node]; ok {
		return c, ci.errors[node]
	}
	lbl := metrics.Label{Name: "node", Value: node}
	req = ci.set.Counter("cloudstore_node_requests_total",
		"Requests issued to each store node.", lbl)
	errs = ci.set.Counter("cloudstore_node_errors_total",
		"Requests to each store node that failed after retries (a not-found answer is not an error).", lbl)
	ci.requests[node] = req
	ci.errors[node] = errs
	return req, errs
}

// NewCluster returns a sharded client over cfg.Nodes. At least one node is
// required.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("remotestore: cluster needs at least one node")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	cdc := cfg.Codec
	if cdc == nil {
		cdc = codec.Identity{}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real()
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 2
	}
	if replicas > len(cfg.Nodes) {
		replicas = len(cfg.Nodes)
	}
	quorum := cfg.WriteQuorum
	if quorum <= 0 || quorum > replicas {
		quorum = replicas
	}
	retry := cfg.Retry
	if retry.MaxAttempts == 0 {
		retry = failover.RetryPolicy{MaxAttempts: 2, Backoff: 5 * time.Millisecond, Jitter: failover.FullJitter}
	}
	var breakers *core.BreakerSet
	brCfg := cfg.Breaker
	if brCfg.Threshold == 0 {
		brCfg = core.BreakerConfig{Threshold: 4, Cooldown: 2 * time.Second}
	}
	if brCfg.Threshold > 0 {
		breakers = core.NewBreakerSet(brCfg, clk)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2 * len(cfg.Nodes)
		if workers < 4 {
			workers = 4
		}
	}
	pool, err := future.NewPool(workers, workers*4)
	if err != nil {
		return nil, err
	}
	maxPending := cfg.MaxPending
	if maxPending == 0 {
		maxPending = DefaultMaxPending
	}
	ringOpts := []ring.Option{ring.WithSeed(cfg.Seed)}
	if cfg.VirtualNodes > 0 {
		ringOpts = append(ringOpts, ring.WithVirtualNodes(cfg.VirtualNodes))
	}
	cl := &Cluster{
		replicas: replicas,
		quorum:   quorum,
		cdc:      cdc,
		local:    cfg.Local,
		clk:      clk,
		retry:    retry,
		breakers: breakers,
		pool:     pool,
		ring:     ring.New(ringOpts...),
		timeout:  cfg.Timeout,
		nodes:    make(map[string]*transport, len(cfg.Nodes)),
		queue:    newWriteQueue(maxPending),
		inst:     newClusterInstruments(cfg.Metrics),
	}
	cl.rt = nodeRoundTripper()
	if cfg.CacheSize > 0 {
		cl.memcache = cache.NewSharded[[]byte](cfg.CacheSize, cache.WithTTL(cfg.CacheTTL))
	}
	for _, n := range cfg.Nodes {
		cl.AddNode(n)
	}
	return cl, nil
}

var _ Store = (*Cluster)(nil)

// nodeRoundTripper returns the RoundTripper a cluster's node calls go
// through. While http.DefaultTransport is the stdlib *http.Transport, it is
// a clone of it, kept per cluster, whose idle pool is not split per host:
// a cluster's only hosts are its nodes, and with the default two idle
// connections per host every caller past the second dials afresh. A
// RoundTripper a program installed as http.DefaultTransport (a tracing
// wrapper, say) is used as it is. So the result is an *http.Transport
// exactly when the cluster owns it.
func nodeRoundTripper() http.RoundTripper {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport
	}
	t = t.Clone()
	if t.MaxIdleConns > 0 {
		t.MaxIdleConnsPerHost = t.MaxIdleConns
	}
	return t
}

// AddNode joins a store node to the ring. New keys start landing on it
// immediately; call Rebalance to move existing replicas onto it.
func (cl *Cluster) AddNode(name string) {
	cl.nmu.Lock()
	if _, ok := cl.nodes[name]; !ok {
		cl.nodes[name] = &transport{base: name, rt: cl.rt, timeout: cl.timeout}
		cl.ring.Add(name)
	}
	cl.nmu.Unlock()
	cl.inst.ringNodes.Set(int64(cl.ring.Len()))
}

// RemoveNode leaves a node. Keys it held remain on their surviving
// replicas; call Rebalance to restore full replication on the remaining
// members.
func (cl *Cluster) RemoveNode(name string) {
	cl.nmu.Lock()
	delete(cl.nodes, name)
	cl.ring.Remove(name)
	cl.nmu.Unlock()
	cl.inst.ringNodes.Set(int64(cl.ring.Len()))
}

// Nodes returns the current members, sorted.
func (cl *Cluster) Nodes() []string { return cl.ring.Nodes() }

// Replicas returns R.
func (cl *Cluster) Replicas() int { return cl.replicas }

// WriteQuorum returns W.
func (cl *Cluster) WriteQuorum() int { return cl.quorum }

// Close releases the fan-out pool, waiting for in-flight background
// replication to finish, and then the idle connections to the nodes.
func (cl *Cluster) Close() {
	cl.pool.Close()
	if t, ok := cl.rt.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// SetOffline switches the client into (or out of) offline mode. Going
// offline is also automatic when a write cannot reach quorum because its
// owners are unreachable; coming back online does not sync automatically,
// call Sync.
func (cl *Cluster) SetOffline(offline bool) {
	cl.mu.Lock()
	cl.offline = offline
	cl.mu.Unlock()
}

// Offline reports the current mode.
func (cl *Cluster) Offline() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.offline
}

// PendingWrites returns how many writes await synchronization.
func (cl *Cluster) PendingWrites() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.queue.len()
}

// Stats returns a snapshot of activity counters.
func (cl *Cluster) Stats() Stats {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return Stats{
		RemoteGets:    cl.stats.remoteGets,
		RemotePuts:    cl.stats.remotePuts,
		CacheHits:     cl.stats.cacheHits,
		OfflineWrites: cl.stats.offlineWrites,
		SyncedWrites:  cl.stats.syncedWrites,
		DroppedWrites: cl.queue.dropped,
		BytesSent:     cl.stats.bytesSent,
		ReadFailovers: cl.stats.readFailovers,
	}
}

// BreakerStates summarizes the per-node circuit breakers (empty when
// breaking is disabled).
func (cl *Cluster) BreakerStates() []core.BreakerState {
	if cl.breakers == nil {
		return nil
	}
	return cl.breakers.States()
}

// owners returns key's replica set, primary first.
func (cl *Cluster) owners(key string) []string {
	return cl.ring.LookupN(key, cl.replicas)
}

func (cl *Cluster) transportFor(node string) *transport {
	cl.nmu.RLock()
	defer cl.nmu.RUnlock()
	return cl.nodes[node]
}

// wrapNodeErr tags a node-level failure. Transport failures gain
// service.ErrUnavailable so the shared breaker and retry machinery — which
// classify transients by that sentinel — treat them as such, while
// isTransport keeps matching through the second %w.
func wrapNodeErr(node string, err error) error {
	if isTransport(err) {
		return fmt.Errorf("remotestore: node %s: %w: %w", node, service.ErrUnavailable, err)
	}
	return fmt.Errorf("remotestore: node %s: %w", node, err)
}

// unreachable reports failures that mean the node (or quorum) could not be
// reached, as opposed to the node answering with an application error.
func unreachable(err error) bool {
	return errors.Is(err, service.ErrUnavailable) || errors.Is(err, core.ErrBreakerOpen)
}

// nodeDo runs one node operation through the per-node breaker and retry
// policy. It never uses the fan-out pool, so callers already running on a
// pool worker (Sync drains, Rebalance copies) can call it without
// deadlocking the pool against itself.
func (cl *Cluster) nodeDo(ctx context.Context, node string, op func(ctx context.Context, tr *transport) error) error {
	tr := cl.transportFor(node)
	if tr == nil {
		return fmt.Errorf("remotestore: node %s: %w", node, core.ErrBreakerOpen)
	}
	var br *core.Breaker
	if cl.breakers != nil {
		br = cl.breakers.For(node)
		if !br.Allow() {
			return fmt.Errorf("remotestore: node %s: %w", node, core.ErrBreakerOpen)
		}
	}
	req, errc := cl.inst.forNode(node)
	req.Inc()
	_, _, err := failover.InvokeFunc(ctx, cl.clk, func(ctx context.Context) (service.Response, error) {
		if err := op(ctx, tr); err != nil {
			return service.Response{}, wrapNodeErr(node, err)
		}
		return service.Response{}, nil
	}, cl.retry)
	// An op that failed after its caller's context ended is no evidence
	// about the node: it neither counts as a node error nor moves a closed
	// breaker towards open. A tripped breaker still records it, because the
	// op may have been the half-open probe, whose slot only Record frees.
	abandoned := err != nil && ctx.Err() != nil
	if br != nil && (!abandoned || br.Tripped()) {
		br.Record(err)
	}
	if err != nil && !abandoned && !errors.Is(err, ErrNotFound) {
		// Not-found is an expected application answer — counting it as a
		// node error would make routine probes inflate a healthy node's
		// error rate.
		errc.Inc()
	}
	return err
}

// Put stores value under key, replicated to R nodes; it returns once W
// replicas acknowledge (or the write is queued offline), and only then
// caches and mirrors it.
func (cl *Cluster) Put(key string, value []byte) error {
	return cl.PutCtx(context.Background(), key, value)
}

// PutCtx is Put with cancellation of the in-flight fan-out.
func (cl *Cluster) PutCtx(ctx context.Context, key string, value []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	encoded, err := cl.cdc.Encode(value)
	if err != nil {
		return fmt.Errorf("remotestore: encode: %w", err)
	}
	// The store goes first: replicate returns nil once the write reached its
	// quorum or was queued for Sync, which counts as accepted, so the client
	// reads it back while offline. It returns an error when the nodes refused
	// the write or the caller gave up on it — then the mirror keeps what it
	// had, and the cache entry goes, because some replicas may have taken
	// the write.
	if cl.Offline() {
		cl.queueWrite(key, encoded, false)
	} else if err := cl.replicate(ctx, key, encoded, false); err != nil {
		if cl.memcache != nil {
			cl.memcache.Delete(key)
		}
		return err
	}
	if cl.memcache != nil {
		cp := make([]byte, len(value))
		copy(cp, value)
		cl.memcache.Set(key, cp)
	}
	if cl.local != nil {
		if err := cl.local.Put(key, encoded); err != nil {
			return fmt.Errorf("remotestore: local mirror: %w", err)
		}
	}
	return nil
}

// Delete removes key from its replicas (quorum semantics as Put).
func (cl *Cluster) Delete(key string) error {
	return cl.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete with cancellation.
func (cl *Cluster) DeleteCtx(ctx context.Context, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if cl.memcache != nil {
		cl.memcache.Delete(key)
	}
	if cl.local != nil {
		if err := cl.local.Delete(key); err != nil {
			return fmt.Errorf("remotestore: local delete: %w", err)
		}
	}
	if cl.Offline() {
		cl.queueWrite(key, nil, true)
		return nil
	}
	return cl.replicate(ctx, key, nil, true)
}

// nodeWrite performs one put-or-delete on one node, folding the per-node
// stats in on success.
func (cl *Cluster) nodeWrite(ctx context.Context, node, key string, encoded []byte, del bool) error {
	err := cl.nodeDo(ctx, node, func(ctx context.Context, tr *transport) error {
		if del {
			return tr.del(ctx, key)
		}
		return tr.put(ctx, key, encoded)
	})
	if err == nil && !del {
		cl.mu.Lock()
		cl.stats.remotePuts++
		cl.stats.bytesSent += int64(len(encoded))
		cl.mu.Unlock()
	}
	return err
}

// replicate fans a write out to key's R owners in parallel on the bounded
// pool and returns once W of them acknowledge. The remaining acks drain in
// a background goroutine that records the write's replication lag. A write
// that cannot reach quorum because nodes are unreachable queues for Sync
// and flips the client offline; any other failure is returned — a refusal,
// or the caller's own context ending, which says nothing about the nodes.
func (cl *Cluster) replicate(ctx context.Context, key string, encoded []byte, del bool) error {
	owners := cl.owners(key)
	if len(owners) == 0 {
		return errors.New("remotestore: no nodes in ring")
	}
	need := cl.quorum
	if need > len(owners) {
		need = len(owners)
	}
	start := cl.clk.Now()
	acks := make(chan nodeAck, len(owners))
	for _, node := range owners {
		node := node
		// The op function runs even if ctx is already dead (it sends
		// exactly one ack; the quorum accounting below relies on
		// len(owners) sends). Cancellation still cuts the actual I/O
		// short through the request context.
		future.Submit(cl.pool, func() (struct{}, error) {
			err := cl.nodeWrite(ctx, node, key, encoded, del)
			acks <- nodeAck{node: node, err: err, at: cl.clk.Since(start)}
			return struct{}{}, nil
		})
	}
	got, failed := 0, 0
	var errs []error
	var firstAck, lastAck time.Duration
	consumed := 0
	for consumed < len(owners) {
		a := <-acks
		consumed++
		if a.err == nil {
			if got == 0 {
				firstAck = a.at
			}
			if a.at > lastAck {
				lastAck = a.at
			}
			got++
			if got == need {
				break
			}
		} else {
			failed++
			errs = append(errs, a.err)
			if len(owners)-failed < need {
				break
			}
		}
	}
	if got >= need {
		cl.inst.fanoutLat.Observe(cl.clk.Since(start))
		if remaining := len(owners) - consumed; remaining > 0 {
			// Drain stragglers off the caller's critical path, observing
			// the first-ack-to-last-replica spread as replication lag.
			go func(first, last time.Duration) {
				for i := 0; i < remaining; i++ {
					a := <-acks
					if a.err == nil && a.at > last {
						last = a.at
					}
				}
				cl.inst.replLag.Observe(last - first)
			}(firstAck, lastAck)
		} else {
			cl.inst.replLag.Observe(lastAck - firstAck)
		}
		return nil
	}
	err := fmt.Errorf("%w: %d/%d acks from %v: %w", ErrNoQuorum, got, need, owners, errors.Join(errs...))
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w: %w", cerr, err)
	}
	for _, e := range errs {
		if unreachable(e) {
			cl.SetOffline(true)
			cl.queueWrite(key, encoded, del)
			return nil
		}
	}
	return err
}

// Get returns the value for key: from the cache, then the primary, then —
// on transport error, open breaker, or a stale miss — the remaining
// replicas in ring order, then the local mirror. NotFound is only
// authoritative after every reachable replica has denied the key. A failed
// read never flips the client offline: other shards are likely still
// healthy, and a read that gave up says nothing about the next one.
func (cl *Cluster) Get(key string) ([]byte, error) {
	return cl.GetCtx(context.Background(), key)
}

// GetCtx is Get with cancellation.
func (cl *Cluster) GetCtx(ctx context.Context, key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	if cl.memcache != nil {
		if v, err := cl.memcache.Get(key); err == nil {
			cl.mu.Lock()
			cl.stats.cacheHits++
			cl.mu.Unlock()
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
	}
	if !cl.Offline() {
		owners := cl.owners(key)
		sawNotFound := false
		var lastErr error
		for i, node := range owners {
			var data []byte
			err := cl.nodeDo(ctx, node, func(ctx context.Context, tr *transport) error {
				var gerr error
				data, gerr = tr.get(ctx, key)
				return gerr
			})
			switch {
			case err == nil:
				if i > 0 {
					cl.mu.Lock()
					cl.stats.readFailovers++
					cl.mu.Unlock()
					cl.inst.failovers.Inc()
				}
				cl.mu.Lock()
				cl.stats.remoteGets++
				cl.mu.Unlock()
				value, derr := cl.cdc.Decode(data)
				if derr != nil {
					return nil, fmt.Errorf("remotestore: decode: %w", derr)
				}
				if cl.memcache != nil {
					cp := make([]byte, len(value))
					copy(cp, value)
					cl.memcache.Set(key, cp)
				}
				return value, nil
			case errors.Is(err, ErrNotFound):
				// This replica answered and does not have the key. With
				// W<R it may simply have missed the write; keep asking.
				sawNotFound = true
			default:
				lastErr = err
			}
		}
		if sawNotFound {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		if lastErr != nil && !unreachable(lastErr) {
			return nil, lastErr
		}
		// Every replica unreachable: fall through to the local mirror.
	}
	if cl.local != nil {
		encoded, err := cl.local.Get(key)
		if err == nil {
			value, derr := cl.cdc.Decode(encoded)
			if derr != nil {
				return nil, fmt.Errorf("remotestore: decode local: %w", derr)
			}
			return value, nil
		}
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, err
	}
	return nil, ErrOffline
}

// Keys scatter-gathers /keys from every node in parallel and returns the
// sorted, de-duplicated union. Because every key lives on R nodes, the
// merge stays complete with up to R-1 nodes unreachable; beyond that it
// falls back to the local mirror (if any) or reports the failure.
func (cl *Cluster) Keys() ([]string, error) {
	return cl.KeysCtx(context.Background())
}

// KeysCtx is Keys with cancellation.
func (cl *Cluster) KeysCtx(ctx context.Context) ([]string, error) {
	if cl.Offline() {
		if cl.local != nil {
			return cl.local.Keys()
		}
		return nil, ErrOffline
	}
	nodes := cl.ring.Nodes()
	if len(nodes) == 0 {
		return nil, errors.New("remotestore: no nodes in ring")
	}
	futs := make([]*future.Future[[]string], len(nodes))
	for i, node := range nodes {
		node := node
		futs[i] = future.Submit(cl.pool, func() ([]string, error) {
			var keys []string
			err := cl.nodeDo(ctx, node, func(ctx context.Context, tr *transport) error {
				var kerr error
				keys, kerr = tr.keys(ctx)
				return kerr
			})
			return keys, err
		})
	}
	lists := make([][]string, 0, len(nodes))
	var errs []error
	for _, f := range futs {
		keys, err := f.Get()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		lists = append(lists, keys)
	}
	if len(errs) > 0 {
		for _, e := range errs {
			if !unreachable(e) {
				return nil, e
			}
		}
		if len(errs) >= cl.replicas {
			// Too many nodes down: some keys may have lost every replica,
			// so the merge would be silently incomplete.
			if cl.local != nil {
				return cl.local.Keys()
			}
			return nil, fmt.Errorf("remotestore: keys: %d/%d nodes unreachable: %w",
				len(errs), len(nodes), errors.Join(errs...))
		}
	}
	return mergeSorted(lists), nil
}

// mergeSorted merges per-node sorted key lists into one sorted,
// de-duplicated slice with a k-way merge (k = live nodes, each list
// already sorted by the node's kvstore).
func mergeSorted(lists [][]string) []string {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]string, 0, total)
	idx := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best == -1 || l[idx[i]] < lists[best][idx[best]] {
				best = i
			}
		}
		if best == -1 {
			return out
		}
		k := lists[best][idx[best]]
		idx[best]++
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
	}
}

func (cl *Cluster) queueWrite(key string, encoded []byte, del bool) {
	cl.mu.Lock()
	evicted := cl.queue.push(key, encoded, del)
	cl.stats.offlineWrites++
	n := cl.queue.len()
	cl.mu.Unlock()
	cl.inst.pending.Set(int64(n))
	if evicted {
		cl.inst.dropped.Inc()
	}
}

// Sync marks the cluster online and drains the offline queue with
// per-node pipelining: each node receives its writes in seq order on its
// own pool task, nodes progress concurrently, and a write counts as synced
// once W of its owners acknowledge. Writes that miss quorum requeue and
// flip the client back offline. Returns how many writes synced.
func (cl *Cluster) Sync() (int, error) {
	return cl.SyncCtx(context.Background())
}

// SyncCtx is Sync with cancellation.
func (cl *Cluster) SyncCtx(ctx context.Context) (int, error) {
	cl.mu.Lock()
	cl.offline = false
	ordered := cl.queue.drain()
	cl.mu.Unlock()
	cl.inst.pending.Set(0)
	if len(ordered) == 0 {
		return 0, nil
	}
	// Per-node sub-queues: writes stay in seq order within each node
	// (later writes to a node must not land before earlier ones), while
	// distinct nodes drain concurrently.
	type syncItem struct {
		w    *pendingWrite
		acks *atomic.Int32
	}
	items := make([]syncItem, len(ordered))
	perNode := make(map[string][]syncItem)
	for i := range ordered {
		items[i] = syncItem{w: &ordered[i], acks: new(atomic.Int32)}
		for _, node := range cl.owners(ordered[i].key) {
			perNode[node] = append(perNode[node], items[i])
		}
	}
	futs := make([]*future.Future[struct{}], 0, len(perNode))
	for node, queue := range perNode {
		node, queue := node, queue
		futs = append(futs, future.Submit(cl.pool, func() (struct{}, error) {
			for _, it := range queue {
				if ctx.Err() != nil {
					return struct{}{}, nil
				}
				if err := cl.nodeWrite(ctx, node, it.w.key, it.w.value, it.w.delete); err == nil {
					it.acks.Add(1)
				}
			}
			return struct{}{}, nil
		}))
	}
	for _, f := range futs {
		_, _ = f.Get()
	}
	need := int32(cl.quorum)
	pushed := 0
	var requeue []pendingWrite
	for _, it := range items {
		owners := len(cl.owners(it.w.key))
		n := need
		if int32(owners) < n {
			n = int32(owners)
		}
		if it.acks.Load() >= n {
			pushed++
			cl.mu.Lock()
			cl.stats.syncedWrites++
			cl.mu.Unlock()
			continue
		}
		requeue = append(requeue, *it.w)
	}
	if len(requeue) > 0 {
		cl.mu.Lock()
		cl.offline = true
		cl.queue.requeue(requeue)
		n := cl.queue.len()
		cl.mu.Unlock()
		cl.inst.pending.Set(int64(n))
		if ctx.Err() != nil {
			return pushed, fmt.Errorf("remotestore: sync interrupted: %w", ctx.Err())
		}
		return pushed, fmt.Errorf("remotestore: sync interrupted: %d writes below quorum", len(requeue))
	}
	return pushed, nil
}

// Rebalance re-replicates every key onto its current owners, for use after
// AddNode/RemoveNode. For each key it reads the stored (post-codec) bytes
// from a current holder and copies them raw to any owner in the new
// placement — raw, because re-encoding through a randomized codec (AES-GCM)
// would make replicas diverge byte-wise for no reason. Stale copies on
// former owners are left behind (they stop being read, and the next write
// to the key refreshes only the new owners); reclaiming them is a storage
// concern, not a correctness one. Returns how many keys were copied to at
// least one new owner.
func (cl *Cluster) Rebalance(ctx context.Context) (int, error) {
	keys, err := cl.KeysCtx(ctx)
	if err != nil {
		return 0, fmt.Errorf("remotestore: rebalance: %w", err)
	}
	nodes := cl.ring.Nodes()
	moved := 0
	var mu sync.Mutex
	futs := make([]*future.Future[struct{}], 0, len(keys))
	var firstErr error
	for _, key := range keys {
		key := key
		// Each per-key task runs nodeDo directly — never nested pool
		// submits, which could deadlock the pool against itself.
		futs = append(futs, future.Submit(cl.pool, func() (struct{}, error) {
			owners := cl.owners(key)
			// Find the bytes: owners first (common case: key already in
			// place), then any other node (the key's pre-change holders).
			var raw []byte
			found := false
			tryRead := func(node string) {
				if found {
					return
				}
				err := cl.nodeDo(ctx, node, func(ctx context.Context, tr *transport) error {
					data, gerr := tr.get(ctx, key)
					if gerr == nil {
						raw = data
					}
					return gerr
				})
				if err == nil {
					found = true
				}
			}
			for _, n := range owners {
				tryRead(n)
			}
			for _, n := range nodes {
				tryRead(n)
			}
			if !found {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("remotestore: rebalance: key %q unreadable on all nodes", key)
				}
				mu.Unlock()
				return struct{}{}, nil
			}
			copied := false
			for _, n := range owners {
				// Unconditional idempotent put: cheaper than probing each
				// owner for presence first, and self-healing for replicas
				// that silently lost the key.
				err := cl.nodeDo(ctx, n, func(ctx context.Context, tr *transport) error {
					return tr.put(ctx, key, raw)
				})
				if err == nil {
					copied = true
				} else {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
			if copied {
				mu.Lock()
				moved++
				mu.Unlock()
			}
			return struct{}{}, nil
		}))
	}
	for _, f := range futs {
		_, _ = f.Get()
	}
	return moved, firstErr
}
