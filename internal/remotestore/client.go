package remotestore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/kvstore"
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("remotestore: not found")

// ErrOffline is returned when an operation needs the remote store but the
// client is offline and no local fallback exists.
var ErrOffline = errors.New("remotestore: offline")

// Store is the enhanced data store surface shared by the single-node
// Client and the sharded Cluster, so kb/docstore callers can take either
// without caring how many servers sit behind it.
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

var _ Store = (*Client)(nil)

// Stats counts client activity. ReadFailovers is only meaningful for the
// Cluster (reads served by a non-primary replica); it stays zero on the
// single-node Client.
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

// ClientConfig configures an enhanced data store client.
type ClientConfig struct {
	// BaseURL locates the cloud store ("http://host:port").
	BaseURL string
	// Codec transforms values before upload (typically Chain{Gzip,
	// AESGCM}). Nil means Identity.
	Codec codec.Codec
	// CacheSize bounds the client-side read cache (entries); 0 disables
	// caching.
	CacheSize int
	// CacheTTL expires cached reads; 0 means no expiry.
	CacheTTL time.Duration
	// Local, if non-nil, mirrors every write locally so reads keep
	// working while disconnected (the paper's local storage service).
	Local kvstore.Store
	// Timeout bounds each HTTP request. 0 means 10 seconds.
	Timeout time.Duration
	// MaxPending caps the offline write-back queue (distinct keys).
	// 0 means DefaultMaxPending; negative means unbounded (the pre-cap
	// behaviour, for callers that would rather grow than drop).
	MaxPending int
}

// pendingWrite is one write queued while offline.
type pendingWrite struct {
	key    string
	value  []byte // encoded (post-codec) value; nil means delete
	seq    int64
	delete bool
}

// Client is the enhanced data store client. It is safe for concurrent use.
type Client struct {
	cfg ClientConfig
	tr  transport
	cdc codec.Codec

	// memcache is sharded so concurrent cached reads contend per shard,
	// not on one global mutex.
	memcache *cache.Sharded[[]byte]

	mu      sync.Mutex
	offline bool
	queue   *writeQueue

	stats struct {
		remoteGets, remotePuts, cacheHits, offlineWrites, syncedWrites, bytesSent int64
	}
}

// NewClient returns an enhanced client for the store at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	cdc := cfg.Codec
	if cdc == nil {
		cdc = codec.Identity{}
	}
	maxPending := cfg.MaxPending
	if maxPending == 0 {
		maxPending = DefaultMaxPending
	}
	c := &Client{
		cfg:   cfg,
		tr:    transport{base: cfg.BaseURL, http: &http.Client{Timeout: cfg.Timeout}},
		cdc:   cdc,
		queue: newWriteQueue(maxPending),
	}
	if cfg.CacheSize > 0 {
		c.memcache = cache.NewSharded[[]byte](cfg.CacheSize, cache.WithTTL(cfg.CacheTTL))
	}
	return c
}

// SetOffline switches the client into (or out of) offline mode. Going
// offline is also automatic when a request fails at the transport level.
// Coming back online does NOT sync automatically; call Sync.
func (c *Client) SetOffline(offline bool) {
	c.mu.Lock()
	c.offline = offline
	c.mu.Unlock()
}

// Offline reports the current mode.
func (c *Client) Offline() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offline
}

// Stats returns a snapshot of activity counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		RemoteGets:    c.stats.remoteGets,
		RemotePuts:    c.stats.remotePuts,
		CacheHits:     c.stats.cacheHits,
		OfflineWrites: c.stats.offlineWrites,
		SyncedWrites:  c.stats.syncedWrites,
		DroppedWrites: c.queue.dropped,
		BytesSent:     c.stats.bytesSent,
	}
}

// PendingWrites returns how many writes await synchronization.
func (c *Client) PendingWrites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.len()
}

// Put stores value under key: encoded via the codec and sent to the remote
// store — or queued if offline — then cached and mirrored to local storage.
func (c *Client) Put(key string, value []byte) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx is Put with cancellation of the in-flight upload.
func (c *Client) PutCtx(ctx context.Context, key string, value []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	encoded, err := c.cdc.Encode(value)
	if err != nil {
		return fmt.Errorf("remotestore: encode: %w", err)
	}
	// The store goes first. A write it refuses (413, a 5xx that is not an
	// outage) returns here with the cache and the mirror still holding what
	// the store holds; a write queued for Sync counts as accepted, so the
	// client reads it back while offline.
	if c.Offline() {
		c.queueWrite(key, encoded, false)
	} else if err := c.remotePut(ctx, key, encoded); err != nil {
		if !isTransport(err) {
			return err
		}
		c.SetOffline(true)
		c.queueWrite(key, encoded, false)
	}
	if c.memcache != nil {
		cp := make([]byte, len(value))
		copy(cp, value)
		c.memcache.Set(key, cp)
	}
	if c.cfg.Local != nil {
		if err := c.cfg.Local.Put(key, encoded); err != nil {
			return fmt.Errorf("remotestore: local mirror: %w", err)
		}
	}
	return nil
}

// Get returns the value for key: from the client cache, then the remote
// store, then (offline) the local mirror.
func (c *Client) Get(key string) ([]byte, error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get with cancellation of the in-flight download.
func (c *Client) GetCtx(ctx context.Context, key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	if c.memcache != nil {
		if v, err := c.memcache.Get(key); err == nil {
			c.mu.Lock()
			c.stats.cacheHits++
			c.mu.Unlock()
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
	}
	if !c.Offline() {
		encoded, err := c.remoteGet(ctx, key)
		switch {
		case err == nil:
			value, err := c.cdc.Decode(encoded)
			if err != nil {
				return nil, fmt.Errorf("remotestore: decode: %w", err)
			}
			if c.memcache != nil {
				cp := make([]byte, len(value))
				copy(cp, value)
				c.memcache.Set(key, cp)
			}
			return value, nil
		case errors.Is(err, ErrNotFound):
			return nil, err
		case isTransport(err):
			c.SetOffline(true)
		default:
			return nil, err
		}
	}
	// Offline fallback: the local mirror.
	if c.cfg.Local != nil {
		encoded, err := c.cfg.Local.Get(key)
		if err == nil {
			value, err := c.cdc.Decode(encoded)
			if err != nil {
				return nil, fmt.Errorf("remotestore: decode local: %w", err)
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

// Delete removes key remotely (or queues the delete while offline) and
// drops it from the cache and local mirror.
func (c *Client) Delete(key string) error {
	return c.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete with cancellation of the in-flight request.
func (c *Client) DeleteCtx(ctx context.Context, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if c.memcache != nil {
		c.memcache.Delete(key)
	}
	if c.cfg.Local != nil {
		if err := c.cfg.Local.Delete(key); err != nil {
			return fmt.Errorf("remotestore: local delete: %w", err)
		}
	}
	if c.Offline() {
		c.queueWrite(key, nil, true)
		return nil
	}
	if err := c.remoteDelete(ctx, key); err != nil {
		if isTransport(err) {
			c.SetOffline(true)
			c.queueWrite(key, nil, true)
			return nil
		}
		return err
	}
	return nil
}

// Sync marks the client online and flushes queued writes in sequence
// order. The queue coalesces writes per key as they are enqueued (last
// writer wins), so every drained entry is live. It returns how many
// operations were pushed.
func (c *Client) Sync() (int, error) {
	return c.SyncCtx(context.Background())
}

// SyncCtx is Sync with cancellation: a cancelled context interrupts the
// replay, requeues the remainder, and puts the client back offline.
func (c *Client) SyncCtx(ctx context.Context) (int, error) {
	c.mu.Lock()
	c.offline = false
	ordered := c.queue.drain()
	c.mu.Unlock()
	if len(ordered) == 0 {
		return 0, nil
	}
	pushed := 0
	for i, w := range ordered {
		err := ctx.Err()
		if err == nil {
			if w.delete {
				err = c.remoteDelete(ctx, w.key)
			} else {
				err = c.remotePut(ctx, w.key, w.value)
			}
		}
		if err != nil {
			// Requeue what has not been pushed and go back offline.
			c.mu.Lock()
			c.offline = true
			c.queue.requeue(ordered[i:])
			c.mu.Unlock()
			return pushed, fmt.Errorf("remotestore: sync interrupted: %w", err)
		}
		pushed++
		c.mu.Lock()
		c.stats.syncedWrites++
		c.mu.Unlock()
	}
	return pushed, nil
}

// Keys lists the remote store's keys (requires connectivity).
func (c *Client) Keys() ([]string, error) {
	return c.KeysCtx(context.Background())
}

// KeysCtx is Keys with cancellation of the in-flight request.
func (c *Client) KeysCtx(ctx context.Context) ([]string, error) {
	if c.Offline() {
		if c.cfg.Local != nil {
			return c.cfg.Local.Keys()
		}
		return nil, ErrOffline
	}
	keys, err := c.tr.keys(ctx)
	if err != nil {
		if isTransport(err) {
			c.SetOffline(true)
			if c.cfg.Local != nil {
				return c.cfg.Local.Keys()
			}
			return nil, fmt.Errorf("remotestore: %w: %v", ErrOffline, err)
		}
		return nil, err
	}
	return keys, nil
}

func (c *Client) queueWrite(key string, encoded []byte, del bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue.push(key, encoded, del)
	c.stats.offlineWrites++
}

func (c *Client) remotePut(ctx context.Context, key string, encoded []byte) error {
	if err := c.tr.put(ctx, key, encoded); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.remotePuts++
	c.stats.bytesSent += int64(len(encoded))
	c.mu.Unlock()
	return nil
}

func (c *Client) remoteGet(ctx context.Context, key string) ([]byte, error) {
	data, err := c.tr.get(ctx, key)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.remoteGets++
	c.mu.Unlock()
	return data, nil
}

func (c *Client) remoteDelete(ctx context.Context, key string) error {
	return c.tr.del(ctx, key)
}
