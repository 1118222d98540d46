// Package remotestore implements the cloud data store substrate and the
// paper's "enhanced data store client" ([11] in the paper): a key-value
// store served over HTTP with injectable latency and outages (Server), and
// one client for it (Cluster, over one node or many) adding client-side
// caching, encryption, compression, offline write-back, and reconnection
// synchronization (paper §3: "when the personalized knowledge base becomes
// disconnected from a cloud data store ... it may be appropriate to
// synchronize the contents of local storage and the cloud data store after
// connectivity ... is re-established").
//
// What the client does when the store does not take an operation:
//
//  1. A read (Get, Keys) never changes the offline flag. It walks the
//     key's owners, then falls back to the local mirror.
//  2. A write flips the client offline and queues for Sync only when it
//     missed its quorum because owners were unreachable.
//  3. A refused write (413, a 5xx answer) returns its error, leaves the
//     mirror alone and drops the cache entry.
//  4. Sync replays the queue per node in seq order, attempts every queued
//     write, and requeues the ones that stayed below quorum.
//
// The caller's own context ending is none of these: the write returns an
// error wrapping ctx.Err(), nothing is queued, the client stays online, and
// the nodes' breakers and error counters do not hear of it.
package remotestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/kvstore"
	"repro/internal/xrand"
)

// DefaultMaxObjectBytes bounds PUT payloads unless overridden with
// WithMaxBytes. Real cloud stores reject oversized objects (S3: 5 GB per
// single PUT) rather than silently truncating them.
const DefaultMaxObjectBytes = 64 << 20

// Server is a simulated cloud key-value store:
//
//	PUT    /kv/{key}   body -> 204 | 413 when the body exceeds the object limit
//	                   | 400 when the key is not valid UTF-8
//	GET    /kv/{key}   -> 200 body | 404
//	DELETE /kv/{key}   -> 204
//	GET    /keys       -> JSON array of keys
//
// Latency, outages, random 5xx bursts, and slow-drip response bodies are
// injectable so experiments and the chaos controller can script remote
// conditions.
type Server struct {
	store    kvstore.Store
	maxBytes int64
	sem      chan struct{} // nil means unlimited concurrency

	mu        sync.Mutex // guards the chaos knobs and their shared RNG
	latency   time.Duration
	down      bool
	failRate  float64
	rng       *xrand.Source
	dripChunk int
	dripDelay time.Duration

	requests atomic.Int64
	bytesIn  atomic.Int64
}

// ServerOption configures optional server behaviour.
type ServerOption func(*Server)

// WithMaxBytes overrides the per-object PUT size limit.
func WithMaxBytes(n int64) ServerOption {
	return func(s *Server) { s.maxBytes = n }
}

// WithSeed seeds the server's fault-injection RNG (default seed 1), so
// scripted 5xx bursts are reproducible run to run.
func WithSeed(seed int64) ServerOption {
	return func(s *Server) { s.rng = xrand.New(seed) }
}

// WithCapacity bounds how many requests the node serves concurrently;
// excess requests queue (respecting the request context) rather than fail.
// Real store nodes have finite worker pools — modelling that is what makes
// aggregate throughput grow with node count in the sharding experiments
// instead of one in-process node absorbing unlimited parallelism.
func WithCapacity(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// NewServer wraps store as a cloud store. A nil store gets a fresh
// in-memory one.
func NewServer(store kvstore.Store, opts ...ServerOption) *Server {
	if store == nil {
		store = kvstore.NewMemory()
	}
	s := &Server{store: store, maxBytes: DefaultMaxObjectBytes, rng: xrand.New(1)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetLatency injects a fixed service-side latency per request. The sleep
// watches the request context, so a client that disconnects (or times out)
// mid-latency releases its handler goroutine immediately instead of
// pinning it for the full injected duration.
func (s *Server) SetLatency(d time.Duration) {
	s.mu.Lock()
	s.latency = d
	s.mu.Unlock()
}

// SetDown scripts an outage: while down every request returns 503.
func (s *Server) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// SetFailRate scripts a random-5xx burst: each request independently fails
// with 503 with probability p, drawn from the server's seeded RNG.
func (s *Server) SetFailRate(p float64) {
	s.mu.Lock()
	s.failRate = p
	s.mu.Unlock()
}

// SetSlowDrip makes GET /kv/{key} responses drip out in chunk-byte writes
// separated by delay — the classic misbehaving-backend mode that holds
// client connections open. chunk <= 0 or delay <= 0 disables dripping.
func (s *Server) SetSlowDrip(chunk int, delay time.Duration) {
	s.mu.Lock()
	s.dripChunk, s.dripDelay = chunk, delay
	s.mu.Unlock()
}

// Requests returns how many requests the server has handled.
func (s *Server) Requests() int64 { return s.requests.Load() }

// BytesIn returns the total payload bytes received, the quantity cloud
// stores meter for network and storage charges.
func (s *Server) BytesIn() int64 { return s.bytesIn.Load() }

// Handler returns the server's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	wrap := func(fn http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			s.requests.Add(1)
			if s.sem != nil {
				select {
				case s.sem <- struct{}{}:
					defer func() { <-s.sem }()
				case <-r.Context().Done():
					return
				}
			}
			s.mu.Lock()
			lat, down := s.latency, s.down
			fail := s.failRate > 0 && s.rng.Bernoulli(s.failRate)
			s.mu.Unlock()
			if lat > 0 {
				// Sleep on a timer racing the request context: a
				// disconnected or cancelled client must not pin this
				// goroutine for the whole injected latency.
				t := time.NewTimer(lat)
				select {
				case <-r.Context().Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
			if down || fail {
				http.Error(w, "store unavailable", http.StatusServiceUnavailable)
				return
			}
			fn(w, r)
		}
	}
	mux.HandleFunc("PUT /kv/{key}", wrap(func(w http.ResponseWriter, r *http.Request) {
		// A key that is not valid UTF-8 would list, as JSON, as another.
		key := r.PathValue("key")
		if !utf8.ValidString(key) {
			http.Error(w, fmt.Sprintf("key %q is not valid UTF-8", key), http.StatusBadRequest)
			return
		}
		data, ok := readObject(w, r, s.maxBytes)
		if !ok {
			return
		}
		s.bytesIn.Add(int64(len(data)))
		if err := s.store.Put(key, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mux.HandleFunc("GET /kv/{key}", wrap(func(w http.ResponseWriter, r *http.Request) {
		data, err := s.store.Get(r.PathValue("key"))
		if errors.Is(err, kvstore.ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			// Not a 404: the client takes that for an answer, "no such
			// key", and stops asking the other replicas.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		s.mu.Lock()
		chunk, delay := s.dripChunk, s.dripDelay
		s.mu.Unlock()
		if chunk <= 0 || delay <= 0 {
			_, _ = w.Write(data)
			return
		}
		// Slow-drip mode: emit the body chunk by chunk, flushing between
		// writes, bailing out if the client goes away.
		fl, _ := w.(http.Flusher)
		for len(data) > 0 {
			n := chunk
			if n > len(data) {
				n = len(data)
			}
			if _, err := w.Write(data[:n]); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			data = data[n:]
			if len(data) == 0 {
				return
			}
			t := time.NewTimer(delay)
			select {
			case <-r.Context().Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
	}))
	mux.HandleFunc("DELETE /kv/{key}", wrap(func(w http.ResponseWriter, r *http.Request) {
		if err := s.store.Delete(r.PathValue("key")); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mux.HandleFunc("GET /keys", wrap(func(w http.ResponseWriter, r *http.Request) {
		keys, err := s.store.Keys()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(keys); err != nil {
			// Header already written; nothing more to do.
			_ = err
		}
	}))
	return mux
}

// readObject reads a PUT body of at most max bytes; on failure it has
// written the response and returns false. A body whose declared length
// already exceeds max is answered 413 unread. Otherwise it reads one byte
// past the limit: landing there means the body is oversized, and the
// correct answer is 413, not a silently truncated object stored with
// success.
func readObject(w http.ResponseWriter, r *http.Request, max int64) ([]byte, bool) {
	if r.ContentLength > max {
		http.Error(w, fmt.Sprintf("object exceeds %d-byte limit", max), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	data, err := readBody(r.Body, r.ContentLength, max+1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if int64(len(data)) > max {
		http.Error(w, fmt.Sprintf("object exceeds %d-byte limit", max), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return data, true
}

// maxPresize caps how much of a body's declared length readBody allocates
// before the bytes arrive. The length is the sender's word: a request that
// declares 64 MiB and then stalls must not pin 64 MiB. A longer body grows
// its buffer as it arrives, as io.ReadAll's does.
const maxPresize = 64 << 10

// readBody returns what io.ReadAll(io.LimitReader(r, limit)) returns, or
// io.ReadAll(r) for a negative limit, reading a body of declared length
// size (-1 if unknown) into one buffer when the length is at most
// maxPresize. The buffer has bytes.MinRead to spare, so the closing EOF
// lands without growing it.
func readBody(r io.Reader, size, limit int64) ([]byte, error) {
	n := min(max(size, 0), maxPresize)
	if limit >= 0 {
		n = min(n, limit)
		r = io.LimitReader(r, limit)
	}
	var b bytes.Buffer
	b.Grow(int(n) + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// ErrRemote classifies remote failures for the client.
type remoteError struct {
	status int
	msg    string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("remotestore: HTTP %d: %s", e.status, e.msg)
}
