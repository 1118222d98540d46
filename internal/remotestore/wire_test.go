package remotestore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/raceflag"
)

// A reply cut off mid-body is the node failing to answer, not an answer:
// the per-attempt deadline expiring while a slow-dripping node is still
// sending the value counts against the node's breaker, and with every
// owner failing that way the read falls back to the local mirror.
func TestMidBodyCutIsTransportFailure(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 4<<10)
	// The node and the mirror hold the value from the start, so the only
	// request that meets the 40ms deadline is a Get.
	node, mirror := kvstore.NewMemory(), kvstore.NewMemory()
	for _, st := range []kvstore.Store{node, mirror} {
		if err := st.Put("k", value); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(node)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := oneNode(t, hs.URL, ClusterConfig{
		Local:   mirror,
		Timeout: 40 * time.Millisecond,
		Retry:   fastRetry,
		Breaker: core.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	})
	// 64 chunks 20ms apart: the body takes over a second, the deadline 40ms.
	srv.SetSlowDrip(64, 20*time.Millisecond)
	for i := 0; i < 3; i++ {
		got, err := c.Get("k")
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("Get %d with the reply cut mid-body = (%d bytes, %v), want the mirror's %d bytes", i, len(got), err, len(value))
		}
	}
	if st := c.BreakerStates(); len(st) != 1 || st[0].State != "open" {
		t.Errorf("breakers after three cut replies = %+v, want the node's open", st)
	}
	if c.Offline() {
		t.Error("a failed read took the client offline")
	}
}

// A negative Timeout is the 10-second default, as 0 is: it does not put
// every attempt past its deadline before the request is sent.
func TestNegativeTimeoutIsDefault(t *testing.T) {
	hs := httptest.NewServer(NewServer(nil).Handler())
	t.Cleanup(hs.Close)
	c := oneNode(t, hs.URL, ClusterConfig{Timeout: -time.Second, Retry: fastRetry})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put with a negative Timeout = %v", err)
	}
	if got, err := c.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("Get with a negative Timeout = (%q, %v), want v", got, err)
	}
	if c.Offline() {
		t.Error("a negative Timeout took the client offline")
	}
}

// A cluster keeps its node connections: under a mixed load no node accepts
// more connections than requests can be in flight to it at once — every
// caller's read plus every pool worker's write — however many requests it
// serves.
func TestClusterReusesConnections(t *testing.T) {
	const callers, opsPerCaller, workers = 8, 200, 4
	var urls []string
	conns := make([]*atomic.Int64, 2)
	var warming atomic.Bool
	arrived, release := make(chan struct{}, len(conns)*callers), make(chan struct{})
	for i := range conns {
		conns[i] = new(atomic.Int64)
		node := NewServer(nil).Handler()
		hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if warming.Load() {
				arrived <- struct{}{}
				<-release
			}
			node.ServeHTTP(w, r)
		}))
		accepted := conns[i]
		hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				accepted.Add(1)
			}
		}
		hs.Start()
		t.Cleanup(hs.Close)
		urls = append(urls, hs.URL)
	}
	c, err := NewCluster(ClusterConfig{
		Nodes: urls, Replicas: 2, WriteQuorum: 2, Seed: 1, Workers: workers,
		Retry: fastRetry, Breaker: core.BreakerConfig{Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Open one connection per caller to each node first, with every request
	// held at the node until all have arrived: a dial that a connection
	// freed meanwhile overtakes still adds its connection to the pool, and
	// how many such dials a cold start makes depends on the scheduler.
	warming.Store(true)
	var wg sync.WaitGroup
	for _, u := range urls {
		tr := c.transportFor(u)
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tr.get(context.Background(), "warm"); !errors.Is(err, ErrNotFound) {
					t.Errorf("warm-up get = %v, want not found", err)
				}
			}()
		}
	}
	for i := 0; i < cap(arrived); i++ {
		<-arrived
	}
	warming.Store(false)
	close(release)
	wg.Wait()

	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerCaller; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				if i%3 == 0 {
					if err := c.Put(key, []byte(key)); err != nil {
						errs <- err
						return
					}
				} else if _, err := c.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, n := range conns {
		t.Logf("node %d: %d connections", i, n.Load())
		if got := n.Load(); got > callers+workers {
			t.Errorf("node %d accepted %d connections, want at most %d (callers + pool workers)", i, got, callers+workers)
		}
	}
}

// memNode answers a transport's node requests in process: no sockets, no
// handler, one response and, for a GET, one body per request, so what a
// call costs beyond that is the transport's own.
type memNode struct{ value []byte }

// memBody is a stored value as a response body.
type memBody struct{ bytes.Reader }

func (*memBody) Close() error { return nil }

func (n memNode) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut {
		_, _ = io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
		return &http.Response{StatusCode: http.StatusNoContent, Body: http.NoBody, Request: req}, nil
	}
	body := &memBody{}
	body.Reset(n.value)
	return &http.Response{
		StatusCode:    http.StatusOK,
		ContentLength: int64(len(n.value)),
		Body:          body,
		Request:       req,
	}, nil
}

// roundTripFunc is a RoundTripper written inline.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestTransportAllocs pins what one node call allocates: a get of a 64 KiB
// value reads it into one buffer sized from its declared length, and
// neither call builds an http.Client's redirect and timer machinery. With
// an http.Client and io.ReadAll the get took 47 allocations and the put 33.
func TestTransportAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not the product's under the race detector")
	}
	value := bytes.Repeat([]byte("v"), 64<<10)
	tr := &transport{base: "http://node.local", rt: memNode{value}, timeout: time.Minute}
	ctx := context.Background()
	get := testing.AllocsPerRun(100, func() {
		if data, err := tr.get(ctx, "k"); err != nil || len(data) != len(value) {
			t.Fatalf("get = (%d bytes, %v)", len(data), err)
		}
	})
	put := testing.AllocsPerRun(100, func() {
		if err := tr.put(ctx, "k", value); err != nil {
			t.Fatalf("put = %v", err)
		}
	})
	t.Logf("get of %d bytes: %.0f allocations; put: %.0f", len(value), get, put)
	if get > 11 {
		t.Errorf("a get of %d bytes allocates %.0f times, want ≤ 11", len(value), get)
	}
	if put > 12 {
		t.Errorf("a put allocates %.0f times, want ≤ 12", put)
	}
}

// A declared length is the sender's word, not bytes in hand: a PUT or a
// reply that declares the largest object and then sends a few bytes, ending
// at EOF or in an error, costs about what it sent, not what it declared.
func TestDeclaredLengthIsNotTrusted(t *testing.T) {
	const declared = DefaultMaxObjectBytes
	sent := []byte("a few bytes")
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, cut := range []bool{false, true} {
		body := func() io.Reader {
			if cut {
				return io.MultiReader(bytes.NewReader(sent), iotest.ErrReader(errCut))
			}
			return bytes.NewReader(sent)
		}
		req := httptest.NewRequest(http.MethodPut, "/kv/k", body())
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		n := allocated(func() { readObject(rec, req, DefaultMaxObjectBytes) })
		t.Logf("PUT declaring %d bytes, sending %d (cut %v): %d bytes allocated, status %d", declared, len(sent), cut, n, rec.Code)
		if n > 1<<20 {
			t.Errorf("PUT declaring %d bytes, sending %d (cut %v): allocated %d bytes, want at most 1 MiB", declared, len(sent), cut, n)
		}

		tr := &transport{base: "http://node.local", timeout: time.Minute, rt: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, ContentLength: declared, Body: io.NopCloser(body()), Request: req}, nil
		})}
		n = allocated(func() { _, _ = tr.get(context.Background(), "k") })
		t.Logf("reply declaring %d bytes, sending %d (cut %v): %d bytes allocated", declared, len(sent), cut, n)
		if n > 1<<20 {
			t.Errorf("reply declaring %d bytes, sending %d (cut %v): allocated %d bytes, want at most 1 MiB", declared, len(sent), cut, n)
		}
	}
}

// Nothing a cluster starts outlives it: once its replicated writes (W<R,
// so the last acks drain in the background), reads and key listings are
// done, Close and the nodes' shutdown leave no goroutine behind.
func TestClusterLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		hs := httptest.NewServer(NewServer(nil).Handler())
		servers = append(servers, hs)
		urls = append(urls, hs.URL)
	}
	c, err := NewCluster(ClusterConfig{Nodes: urls, Replicas: 3, WriteQuorum: 1, Seed: 1, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g*13+i)%32)
				if err := c.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if _, err := c.Keys(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()
	for _, hs := range servers {
		hs.Close()
	}
	// Every goroutine the cluster and the nodes started has returned or is
	// returning; give the last ones a moment to be gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the cluster\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// errCut ends a fuzzed body that fails mid-read.
var errCut = errors.New("body cut")

// FuzzReadBody holds readBody to io.ReadAll over io.LimitReader, with and
// without a limit, and readObject's accept/413/400 decision to the same
// reference, for bodies whose declared length is exact, short, long,
// unknown or huge, read whole, one byte at a time or half a buffer at a
// time, and ending at EOF or in an error. Shape's low two bits pick the
// reader and bit 2 the error; kind picks the declared length, delta how far
// off it is.
func FuzzReadBody(f *testing.F) {
	f.Add([]byte("hello"), uint8(0), uint8(0), uint16(64), uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, kind, delta uint8, max uint16, shape uint8) {
		n := int64(len(body))
		var declared int64
		switch kind % 5 {
		case 0: // exact
			declared = n
		case 1: // short
			declared = n - int64(delta)
			if declared < 0 {
				declared = 0
			}
		case 2: // long
			declared = n + int64(delta) + 1
		case 3: // unknown
			declared = -1
		case 4: // huge
			declared = math.MaxInt64 - int64(delta)
		}
		newReader := func() io.Reader {
			var r io.Reader = bytes.NewReader(body)
			if shape&4 != 0 {
				r = io.MultiReader(r, iotest.ErrReader(errCut))
			}
			switch shape % 4 {
			case 1:
				r = iotest.OneByteReader(r)
			case 2:
				r = iotest.HalfReader(r)
			}
			return r
		}
		limit := int64(max)

		for _, lim := range []int64{limit + 1, -1} {
			var want []byte
			var wantErr error
			if lim < 0 {
				want, wantErr = io.ReadAll(newReader())
			} else {
				want, wantErr = io.ReadAll(io.LimitReader(newReader(), lim))
			}
			got, err := readBody(newReader(), declared, lim)
			if !bytes.Equal(got, want) || err != wantErr {
				t.Fatalf("readBody(declared %d, limit %d) = (%q, %v), want (%q, %v)", declared, lim, got, err, want, wantErr)
			}
		}

		req := httptest.NewRequest(http.MethodPut, "/kv/k", newReader())
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		data, ok := readObject(rec, req, limit)
		want, wantErr := io.ReadAll(io.LimitReader(newReader(), limit+1))
		wantStatus := http.StatusOK
		switch {
		case declared > limit, wantErr == nil && int64(len(want)) > limit:
			wantStatus = http.StatusRequestEntityTooLarge
		case wantErr != nil:
			wantStatus = http.StatusBadRequest
		}
		if ok != (wantStatus == http.StatusOK) || rec.Code != wantStatus {
			t.Fatalf("readObject(declared %d, max %d) = ok %v, status %d, want status %d", declared, limit, ok, rec.Code, wantStatus)
		}
		if ok && !bytes.Equal(data, want) {
			t.Fatalf("readObject(declared %d, max %d) = %q, want %q", declared, limit, data, want)
		}
		if wantStatus == http.StatusRequestEntityTooLarge {
			if msg := fmt.Sprintf("object exceeds %d-byte limit\n", limit); rec.Body.String() != msg {
				t.Fatalf("413 says %q, want %q", rec.Body.String(), msg)
			}
		}
	})
}
