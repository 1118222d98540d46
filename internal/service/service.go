// Package service defines the rich SDK's service abstraction: a uniform
// request/response envelope, service metadata (functionality category and
// monetary cost model), and a registry that groups services providing
// similar functionality so the SDK can rank them and choose among them
// (paper §2).
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Common errors surfaced by service implementations.
var (
	// ErrUnavailable indicates a transient failure: the request may
	// succeed if retried (paper §2.1 failure handling).
	ErrUnavailable = errors.New("service: unavailable")
	// ErrQuotaExceeded indicates the caller's invocation quota for the
	// current period is exhausted (paper §2.2).
	ErrQuotaExceeded = errors.New("service: quota exceeded")
	// ErrBadRequest indicates a permanent, non-retryable request error.
	ErrBadRequest = errors.New("service: bad request")
)

// Request is the uniform invocation envelope. Services interpret the fields
// they need: NLU services read Text, storage services read Key/Data, search
// services read Query.
type Request struct {
	// Op names the operation, for example "analyze", "search", "put",
	// "get".
	Op string `json:"op"`
	// Key is the primary argument for storage-style operations.
	Key string `json:"key,omitempty"`
	// Query is the query string for search-style operations.
	Query string `json:"query,omitempty"`
	// Text is the document for analysis-style operations.
	Text string `json:"text,omitempty"`
	// Data is the binary payload for storage-style operations.
	Data []byte `json:"data,omitempty"`
	// Params carries operation-specific string arguments.
	Params map[string]string `json:"params,omitempty"`
}

// CacheKey returns prefix followed by a stable digest of the request,
// suitable as a cache key: two equal requests always produce the same key,
// and two different ones a different encoding to digest. The encoding
// writes every field as its uvarint length and then its bytes — Op, Key,
// Query, Text, Data — then the number of params, then each param's key
// and value the same way, in key order. Lengths, not separators, mark
// where a field ends, so no byte a caller puts in a field can move a
// boundary. The digest is the first 16 bytes of the encoding's SHA-256,
// in hex; the key is the one allocation CacheKey makes.
func (r Request) CacheKey(prefix string) string {
	bp := keyScratch.Get().(*[]byte)
	enc := r.appendKeyEncoding((*bp)[:0])
	sum := sha256.Sum256(enc)
	if cap(enc) <= maxPooledKeyScratch {
		*bp = enc
		keyScratch.Put(bp)
	}
	var digest [2 * keyDigestBytes]byte
	hex.Encode(digest[:], sum[:keyDigestBytes])
	return prefix + string(digest[:])
}

// keyDigestBytes is how much of the SHA-256 a cache key carries.
const keyDigestBytes = 16

// maxPooledKeyScratch caps the encoding buffers CacheKey keeps for reuse:
// one large document must not pin its size in the pool for good.
const maxPooledKeyScratch = 64 << 10

var keyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// appendKeyEncoding appends the request's cache-key encoding to buf.
func (r Request) appendKeyEncoding(buf []byte) []byte {
	field := func(buf []byte, s string) []byte {
		return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	buf = field(buf, r.Op)
	buf = field(buf, r.Key)
	buf = field(buf, r.Query)
	buf = field(buf, r.Text)
	buf = append(binary.AppendUvarint(buf, uint64(len(r.Data))), r.Data...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Params)))
	if len(r.Params) == 0 {
		return buf
	}
	var stack [8]string
	keys := stack[:0]
	for k := range r.Params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = field(buf, k)
		buf = field(buf, r.Params[k])
	}
	return buf
}

// ArgSize returns the total size in bytes of the request's payload
// arguments. It is the default latency parameter (paper §2: "an example of
// a typical latency parameter is the size of an argument passed to a
// service").
func (r Request) ArgSize() int {
	return len(r.Text) + len(r.Data) + len(r.Query) + len(r.Key)
}

// Response is the uniform result envelope. Body is typically JSON produced
// by the service; typed packages (nlu, search) provide decoders.
type Response struct {
	// Body is the raw response payload.
	Body []byte `json:"body,omitempty"`
	// ContentType describes Body, typically "application/json".
	ContentType string `json:"contentType,omitempty"`
	// Meta carries response metadata such as result counts.
	Meta map[string]string `json:"meta,omitempty"`
}

// Info describes a service for registry, ranking, and cost decisions.
type Info struct {
	// Name uniquely identifies the service.
	Name string `json:"name"`
	// Category groups services providing similar functionality, for
	// example "nlu", "search", "storage". Ranking and failover operate
	// within one category.
	Category string `json:"category"`
	// CostPerCall is the monetary cost of one invocation, in arbitrary
	// currency units.
	CostPerCall float64 `json:"costPerCall"`
	// CostPerByte is the additional monetary cost per payload byte.
	CostPerByte float64 `json:"costPerByte"`
	// Description is a human-readable summary.
	Description string `json:"description,omitempty"`
}

// Cost returns the monetary cost of invoking the service with req.
func (i Info) Cost(req Request) float64 {
	return i.CostPerCall + i.CostPerByte*float64(req.ArgSize())
}

// Service is anything invocable through the SDK. Implementations must be
// safe for concurrent use.
type Service interface {
	// Info returns the service's metadata.
	Info() Info
	// Invoke performs one service call. Transient failures should wrap
	// or be ErrUnavailable so the SDK's retry logic can distinguish them
	// from permanent errors.
	Invoke(ctx context.Context, req Request) (Response, error)
}

// Func adapts a function to the Service interface.
type Func struct {
	Meta Info
	Fn   func(ctx context.Context, req Request) (Response, error)
}

var _ Service = Func{}

// Info implements Service.
func (f Func) Info() Info { return f.Meta }

// Invoke implements Service.
func (f Func) Invoke(ctx context.Context, req Request) (Response, error) {
	return f.Fn(ctx, req)
}

// Registry holds registered services grouped by category. It is safe for
// concurrent use after construction only if mutation has stopped; register
// everything up front (the SDK core does) or guard externally.
type Registry struct {
	byName     map[string]Service
	byCategory map[string][]Service
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:     make(map[string]Service),
		byCategory: make(map[string][]Service),
	}
}

// Register adds svc. It returns an error for duplicate names or empty
// metadata.
func (r *Registry) Register(svc Service) error {
	info := svc.Info()
	if strings.TrimSpace(info.Name) == "" {
		return errors.New("service: empty name")
	}
	if strings.TrimSpace(info.Category) == "" {
		return errors.New("service: empty category")
	}
	if _, dup := r.byName[info.Name]; dup {
		return errors.New("service: duplicate name " + info.Name)
	}
	r.byName[info.Name] = svc
	r.byCategory[info.Category] = append(r.byCategory[info.Category], svc)
	return nil
}

// Get returns the service registered under name, or false.
func (r *Registry) Get(name string) (Service, bool) {
	svc, ok := r.byName[name]
	return svc, ok
}

// Category returns the services registered under category, in registration
// order. The returned slice is a copy.
func (r *Registry) Category(category string) []Service {
	svcs := r.byCategory[category]
	out := make([]Service, len(svcs))
	copy(out, svcs)
	return out
}

// Names returns all registered service names in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
