package remotestore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/failover"
	"repro/internal/kvstore"
)

// awkwardKeys are keys the raw-concatenated URL lost or aliased: a query or
// fragment mark cut the key short, a slash made a second path segment, a
// percent sign failed URL parsing.
var awkwardKeys = []string{
	"a", "a?b", "a#b", "runs/1", "100%", "a b", "a+b", "a%2Fb", "a/b", "a%3Fb",
	"...", "..a", "a/../b", "a/.", "./a", "../a", "a//b", "//", "/a", "a/", "%", "%zz", "%00",
	"\x00", "a\nb", "a\tb", "\x7f", " ", "~", "a;b", "a:b", "@", "a=b&c=d", ".hidden",
	`key with "quotes"`, `back\slash`, "<tag>&", "\u2028", "é", "世界", "\U0001F600", "a?b#c/d%e",
}

// refusedKeys are the keys checkKey turns away.
var refusedKeys = []string{"", ".", "..", "/"}

// randomKeys draws n keys that are not in seen, and adds them to it. With
// valid set, every key is valid UTF-8 (awkward ASCII, control characters,
// multi-byte runes); otherwise keys are arbitrary bytes.
func randomKeys(rng *rand.Rand, n int, valid bool, seen map[string]bool) []string {
	const marks = "/?#%+ &=;:@.~\"\\<>\x00\n"
	runes := []rune("é世\u2028\U0001F600ß")
	var out []string
	for len(out) < n {
		var b []byte
		for i, l := 0, 1+rng.Intn(12); i < l; i++ {
			switch r := rng.Intn(10); {
			case r < 4:
				b = append(b, marks[rng.Intn(len(marks))])
			case r < 7:
				b = append(b, byte('a'+rng.Intn(26)))
			case valid:
				b = utf8.AppendRune(b, runes[rng.Intn(len(runes))])
			default:
				b = append(b, byte(rng.Intn(256)))
			}
		}
		if k := string(b); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// checkKeyRoundTrip is the property: through s, every valid UTF-8 key that
// is a URL path segment — whatever its bytes — stores, reads back, lists
// and deletes as itself, no two distinct keys share a slot, and every other
// key is refused without a trace. held reports how many keys the nodes hold
// (each counted once per replica).
func checkKeyRoundTrip(t *testing.T, s Store, held func() int, replicas int) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	seen := map[string]bool{}
	for _, k := range refusedKeys {
		seen[k] = true
	}
	for _, k := range awkwardKeys {
		seen[k] = true
	}
	valid := append(append([]string{}, awkwardKeys...), randomKeys(rng, 80, true, seen)...)
	value := func(k string) []byte { return []byte(fmt.Sprintf("value of %q", k)) }
	putAll := func(keys []string) {
		t.Helper()
		for _, k := range keys {
			if err := s.Put(k, value(k)); err != nil {
				t.Fatalf("Put(%q): %v", k, err)
			}
		}
	}
	// Every key is read only after all were written: a key that aliased
	// another was overwritten by it, or never arrived.
	getAll := func(keys []string) {
		t.Helper()
		for _, k := range keys {
			if got, err := s.Get(k); err != nil || !bytes.Equal(got, value(k)) {
				t.Errorf("Get(%q) = (%q, %v), want %q", k, got, err, value(k))
			}
		}
	}
	putAll(valid)
	getAll(valid)
	if n := held(); n != replicas*len(valid) {
		t.Errorf("nodes hold %d copies after %d distinct keys at %d replicas, want %d", n, len(valid), replicas, replicas*len(valid))
	}
	listed, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{}, valid...)
	sort.Strings(want)
	if !reflect.DeepEqual(listed, want) {
		t.Errorf("Keys = %q,\nwant %q", listed, want)
	}

	for i, k := range valid {
		if i%2 == 1 {
			continue
		}
		if err := s.Delete(k); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	for i, k := range valid {
		got, err := s.Get(k)
		if i%2 == 0 && !errors.Is(err, errNotFound) {
			t.Errorf("after Delete: Get(%q) = (%q, %v), want ErrNotFound", k, got, err)
		}
		if i%2 == 1 && (err != nil || !bytes.Equal(got, value(k))) {
			t.Errorf("after deleting its neighbours: Get(%q) = (%q, %v), want %q", k, got, err, value(k))
		}
	}
	if n, want := held(), replicas*(len(valid)/2); n != want {
		t.Errorf("nodes hold %d copies after deleting every second key, want %d", n, want)
	}

	// The keys a path segment cannot carry, and keys that are not valid
	// UTF-8, are refused up front. A key of the second kind would read back
	// exactly but list as another: the listing is JSON, which carries each
	// invalid byte as U+FFFD.
	refused := append([]string{}, refusedKeys...)
	for _, k := range randomKeys(rng, 80, false, seen) {
		if !utf8.ValidString(k) {
			refused = append(refused, k)
		}
	}
	if len(refused) == len(refusedKeys) {
		t.Fatal("drew no key that is not valid UTF-8")
	}
	before := held()
	for _, k := range refused {
		if err := s.Put(k, value(k)); err == nil {
			t.Errorf("Put(%q) = nil, want an error", k)
		}
		if _, err := s.Get(k); err == nil || errors.Is(err, errNotFound) {
			t.Errorf("Get(%q) = %v, want a refusal", k, err)
		}
		if err := s.Delete(k); err == nil {
			t.Errorf("Delete(%q) = nil, want an error", k)
		}
	}
	if held() != before || s.PendingWrites() != 0 || s.Offline() {
		t.Errorf("refused keys left a trace: held %d -> %d, pending %d, offline %v", before, held(), s.PendingWrites(), s.Offline())
	}
}

func storeLen(t *testing.T, stores ...kvstore.Store) func() int {
	return func() int {
		t.Helper()
		total := 0
		for _, st := range stores {
			n, err := st.Len()
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		return total
	}
}

func TestKeyBytesRoundTripThroughServer(t *testing.T) {
	st := kvstore.NewMemory()
	srv := NewServer(st)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := oneNode(t, hs.URL, ClusterConfig{})
	checkKeyRoundTrip(t, c, storeLen(t, st), 1)

	requests := srv.Requests()
	for _, k := range refusedKeys {
		_ = c.Put(k, []byte("v"))
		_, _ = c.Get(k)
		_ = c.Delete(k)
	}
	if got := srv.Requests(); got != requests {
		t.Errorf("refused keys cost %d requests, want none", got-requests)
	}
}

// The gateway is a second hop: client -> Cluster.Handler -> Cluster -> nodes,
// so a key is escaped, unescaped by the gateway's mux, escaped again and
// unescaped by the node's.
func TestKeyBytesRoundTripThroughGateway(t *testing.T) {
	var stores []kvstore.Store
	var urls []string
	for i := 0; i < 3; i++ {
		st := kvstore.NewMemory()
		hs := httptest.NewServer(NewServer(st).Handler())
		t.Cleanup(hs.Close)
		stores, urls = append(stores, st), append(urls, hs.URL)
	}
	cl, err := NewCluster(ClusterConfig{
		Nodes: urls, Replicas: 2, Seed: 1,
		Retry: fastRetry, Breaker: failover.BreakerConfig{Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	gw := httptest.NewServer(cl.Handler())
	t.Cleanup(gw.Close)
	checkKeyRoundTrip(t, oneNode(t, gw.URL, ClusterConfig{}), storeLen(t, stores...), 2)
}

// Over HTTP, a node answers 400 to a PUT whose key is not valid UTF-8 and
// stores nothing, and the gateway answers 400, not 502, to any key the
// client refuses, on every /kv route.
func TestRefusedKeysAnswer400OverHTTP(t *testing.T) {
	st := kvstore.NewMemory()
	node := httptest.NewServer(NewServer(st).Handler())
	t.Cleanup(node.Close)
	cl, err := NewCluster(ClusterConfig{Nodes: []string{node.URL}, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	gw := httptest.NewServer(cl.Handler())
	t.Cleanup(gw.Close)

	do := func(method, url string) int {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader("v"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := do(http.MethodPut, node.URL+"/kv/a%FFb"); got != http.StatusBadRequest {
		t.Errorf("node PUT of a key that is not valid UTF-8: status %d, want 400", got)
	}
	// The other keys checkKey refuses never reach a handler: the mux
	// matches no empty segment and takes "." and ".." and "/" for path
	// structure.
	for _, seg := range []string{"a%FFb", "%C0%AF", "%ED%A0%80"} {
		for _, method := range []string{http.MethodPut, http.MethodGet, http.MethodDelete} {
			if got := do(method, gw.URL+"/kv/"+seg); got != http.StatusBadRequest {
				t.Errorf("gateway %s /kv/%s: status %d, want 400", method, seg, got)
			}
		}
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("node holds %d keys (%v), want none", n, err)
	}
}

// plainListing is what a node sends for n keys of the benchmark's shape.
func plainListing(n int) []byte {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d", i)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(keys); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzKeysDecode(f *testing.F) {
	// The committed corpus under testdata/fuzz adds escapes, \u sequences,
	// invalid UTF-8, non-string elements and truncations.
	f.Add([]byte("[\"a\",\"b\"]\n"))
	f.Add([]byte("[]"))
	f.Add(plainListing(40))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want []string
		wantErr := json.Unmarshal(body, &want)
		if got, ok := decodePlainKeys(body); ok {
			if wantErr != nil {
				t.Fatalf("accepted %q, which encoding/json rejects: %v", body, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %q as %q, encoding/json as %q", body, got, want)
			}
		}
		got, err := decodeKeys(body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decodeKeys(%q) error %v, encoding/json error %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeKeys(%q) = %q, encoding/json gives %q", body, got, want)
		}
	})
}

// What a node really sends for plain keys must take the lean path, and the
// lean path must cost a constant number of allocations, not one per key.
func TestKeysDecodeAllocs(t *testing.T) {
	body := plainListing(2048)
	keys, ok := decodePlainKeys(body)
	if !ok || len(keys) != 2048 {
		t.Fatalf("a plain listing of 2048 keys was declined (ok %v, %d keys)", ok, len(keys))
	}
	var want []string
	if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(keys, want) {
		t.Fatalf("lean decode differs from encoding/json (err %v)", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeKeys(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("decoding 2048 plain keys: %.0f allocations, want <= 4", allocs)
	}
}

// The 16 MB cap on a listing still holds: a node that sends a well-formed
// listing longer than that is cut off, and the cut body fails to decode.
func TestKeysBodyCap(t *testing.T) {
	element := []byte(`"` + strings.Repeat("k", 1<<10) + `",`)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("["))
		for sent := 0; sent <= maxKeysBody; sent += len(element) {
			if _, err := w.Write(element); err != nil {
				return
			}
		}
		_, _ = w.Write([]byte(`"last"]`))
	}))
	t.Cleanup(hs.Close)
	tr := &transport{base: hs.URL, rt: hs.Client().Transport, timeout: 10 * time.Second}
	if keys, err := tr.keys(context.Background()); err == nil {
		t.Errorf("a key listing over 16 MB decoded into %d keys", len(keys))
	}
}

func BenchmarkKeysDecode(b *testing.B) {
	body := plainListing(2048)
	b.Run("2048", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if keys, err := decodeKeys(body); err != nil || len(keys) != 2048 {
				b.Fatal(len(keys), err)
			}
		}
	})
}
