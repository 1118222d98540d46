package remotestore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
	"unicode/utf8"
)

// transport is the Cluster's raw HTTP edge to one store node: its /kv and
// /keys endpoints, context-aware so callers can cancel in-flight network
// I/O. It holds no policy — no caching, codecs, offline queues, or retries
// — just the wire protocol and the transport/application error split. It
// calls the RoundTripper itself, without an http.Client: a node never
// redirects and sets no cookies, so all a request needs on top of the
// round trip is its deadline.
type transport struct {
	base    string
	rt      http.RoundTripper
	timeout time.Duration // bounds each request, reading the reply included
}

// errBadKey marks the keys checkKey refuses, so the gateway can answer 400.
var errBadKey = errors.New("remotestore: key cannot be stored")

// checkKey refuses the keys one URL path segment cannot carry to a node's
// mux: it matches no empty segment, cleans "." and ".." away, and takes a
// segment that unescapes to exactly "/" for a trailing slash. It also
// refuses keys that are not valid UTF-8: they would read back exactly but
// list as something else, since the key listing is JSON, which carries
// each invalid byte as U+FFFD. The client calls it before it touches a
// cache, a mirror, a queue or a node.
func checkKey(key string) error {
	switch key {
	case "", ".", "..", "/":
		return fmt.Errorf("%w: %q is not a URL path segment", errBadKey, key)
	}
	if !utf8.ValidString(key) {
		return fmt.Errorf("%w: %q is not valid UTF-8", errBadKey, key)
	}
	return nil
}

// kvURL addresses key on this node. The key travels as one escaped path
// segment, which the node's mux unescapes, so "a/b", "a?b", "a#b" and "100%"
// are keys like any other.
func (t *transport) kvURL(key string) string {
	return t.base + "/kv/" + url.PathEscape(key)
}

// do sends one request to the node under a deadline of t.timeout. On
// success the caller reads what it needs of the response, drains it and
// only then calls cancel, which ends the deadline: the body is read under
// it, and a drained body hands its connection back to the pool. A failed
// round trip comes back as a transportError around the *url.Error
// http.Client would have returned, so the error still names the method and
// the URL.
func (t *transport) do(ctx context.Context, method, target string, body []byte) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(ctx, t.timeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		cancel()
		return nil, nil, fmt.Errorf("remotestore: build %s: %w", method, err)
	}
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		cancel()
		op := method[:1] + strings.ToLower(method[1:])
		return nil, nil, &transportError{&url.Error{Op: op, URL: target, Err: err}}
	}
	return resp, cancel, nil
}

// statusError classifies a reply other than the one op expects: 503 is the
// node being unavailable, any other status an application answer.
func statusError(status int, op string) error {
	if status == http.StatusServiceUnavailable {
		return &transportError{&remoteError{status: status, msg: op}}
	}
	return &remoteError{status: status, msg: op}
}

func (t *transport) put(ctx context.Context, key string, encoded []byte) error {
	resp, cancel, err := t.do(ctx, http.MethodPut, t.kvURL(key), encoded)
	if err != nil {
		return err
	}
	defer cancel()
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return statusError(resp.StatusCode, "put")
	}
	return nil
}

// get reads key's stored bytes. A reply cut off mid-body — the deadline
// expiring, the connection dropping — is the node failing to answer, not
// an answer: it is a transport failure, retried and counted like one.
func (t *transport) get(ctx context.Context, key string) ([]byte, error) {
	resp, cancel, err := t.do(ctx, http.MethodGet, t.kvURL(key), nil)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", errNotFound, key)
	default:
		return nil, statusError(resp.StatusCode, "get")
	}
	data, err := readBody(resp.Body, resp.ContentLength, -1)
	if err != nil {
		return nil, &transportError{fmt.Errorf("read body: %w", err)}
	}
	return data, nil
}

func (t *transport) del(ctx context.Context, key string) error {
	resp, cancel, err := t.do(ctx, http.MethodDelete, t.kvURL(key), nil)
	if err != nil {
		return err
	}
	defer cancel()
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return statusError(resp.StatusCode, "delete")
	}
	return nil
}

// keys reads the node's key listing; a listing cut off mid-body is a
// transport failure, as in get.
func (t *transport) keys(ctx context.Context) ([]string, error) {
	resp, cancel, err := t.do(ctx, http.MethodGet, t.base+"/keys", nil)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp.StatusCode, "keys")
	}
	body, err := readBody(resp.Body, resp.ContentLength, maxKeysBody)
	if err != nil {
		return nil, &transportError{fmt.Errorf("read keys: %w", err)}
	}
	return decodeKeys(body)
}

// maxKeysBody caps the key listing a client reads from a node. A longer
// body is cut there and fails to decode.
const maxKeysBody = 16 << 20

// decodeKeys parses a node's key listing, a JSON array of strings. A listing
// in which no key needs unescaping — what a node sends unless a key holds a
// quote, a backslash, a control character, '<', '>', '&' or invalid UTF-8 —
// decodes without encoding/json: one copy of the body, keys as substrings
// of it. Every other body goes to encoding/json as it arrived.
func decodeKeys(body []byte) ([]string, error) {
	if keys, ok := decodePlainKeys(body); ok {
		return keys, nil
	}
	var keys []string
	if err := json.Unmarshal(body, &keys); err != nil {
		return nil, fmt.Errorf("remotestore: decode: %w", err)
	}
	return keys, nil
}

// decodePlainKeys decodes body when it is a JSON array of strings with no
// escape sequence in it, and declines (false) anything else — including
// every malformed body, so that encoding/json words the error. When it
// accepts, the result is exactly what json.Unmarshal into a []string gives
// (FuzzKeysDecode).
func decodePlainKeys(body []byte) ([]string, bool) {
	if bytes.IndexByte(body, '\\') >= 0 {
		return nil, false
	}
	// Without escapes every key is delimited by exactly two quotes.
	keys := make([]string, 0, bytes.Count(body, []byte{'"'})/2)
	s := string(body)
	i := skipSpace(s, 0)
	if i == len(s) || s[i] != '[' {
		return nil, false
	}
	i = skipSpace(s, i+1)
	if i < len(s) && s[i] == ']' && skipSpace(s, i+1) == len(s) {
		return keys, true
	}
	ascii := true
	for {
		if i == len(s) || s[i] != '"' {
			return nil, false
		}
		start := i + 1
		end := strings.IndexByte(s[start:], '"')
		if end < 0 {
			return nil, false
		}
		end += start
		for j := start; j < end; j++ {
			if c := s[j]; c < 0x20 {
				return nil, false
			} else if c >= utf8.RuneSelf {
				ascii = false
			}
		}
		keys = append(keys, s[start:end])
		i = skipSpace(s, end+1)
		if i == len(s) {
			return nil, false
		}
		if s[i] == ']' {
			break
		}
		if s[i] != ',' {
			return nil, false
		}
		i = skipSpace(s, i+1)
	}
	if skipSpace(s, i+1) != len(s) {
		return nil, false
	}
	// encoding/json replaces invalid UTF-8 with U+FFFD; leave that to it.
	if !ascii && !utf8.ValidString(s) {
		return nil, false
	}
	return keys, true
}

// skipSpace returns the index of the first byte of s at or after i that is
// not JSON whitespace.
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	return i
}

// transportError marks failures that indicate lost connectivity (as opposed
// to application errors like 404).
type transportError struct{ err error }

func (t *transportError) Error() string { return "remotestore: transport: " + t.err.Error() }
func (t *transportError) Unwrap() error { return t.err }

func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
