// Package codec provides the encryption and compression envelopes the
// personalized knowledge base applies before persisting data or sending it
// to a remote store (paper §3: encrypt before storing so confidential data
// cannot leak even from an untrusted store; compress before sending to save
// bandwidth and storage charges). Encryption is AES-256-GCM (authenticated);
// compression is gzip. Codecs compose: Chain(Compress, Encrypt) compresses
// then encrypts, which is the correct order (ciphertext does not compress).
package codec

import (
	"bytes"
	"compress/gzip"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// Codec transforms byte payloads symmetrically.
type Codec interface {
	// Encode transforms plaintext into the stored form.
	Encode(data []byte) ([]byte, error)
	// Decode inverts Encode.
	Decode(data []byte) ([]byte, error)
}

// Identity passes data through unchanged.
type Identity struct{}

var _ Codec = Identity{}

// Encode implements Codec.
func (Identity) Encode(data []byte) ([]byte, error) { return data, nil }

// Decode implements Codec.
func (Identity) Decode(data []byte) ([]byte, error) { return data, nil }

// Gzip compresses with gzip at gzip.DefaultCompression.
//
// Compressor and decompressor state is pooled per process: a compress/flate
// compressor is about 1 MB of window and hash tables, two orders of
// magnitude more than the few-KB values the store sends through it, so
// building one per call is what the call costs. Nothing pooled is reachable
// from a returned slice: output is compressed into pooled scratch and handed
// back as a fresh exact-size copy, so callers may keep or overwrite what
// they get for as long as they like.
type Gzip struct{}

var _ Codec = Gzip{}

// maxPooledScratch caps the scratch buffer a pooled gzipper or gunzipper
// keeps: one 64 MB object must not pin 64 MB for the life of the process.
const maxPooledScratch = 1 << 20

// gzipper is a reusable compressor and the scratch it writes to.
type gzipper struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

// gunzipper is a reusable decompressor, its input reader and its scratch.
type gunzipper struct {
	src bytes.Reader
	zr  gzip.Reader
	buf bytes.Buffer
}

// gzippers holds idle compressors, gunzippers idle decompressors. State
// returns to its pool only after a clean Close, so one that failed
// mid-stream is never reused.
var gzippers, gunzippers sync.Pool

// Encode implements Codec.
func (Gzip) Encode(data []byte) ([]byte, error) {
	e, ok := gzippers.Get().(*gzipper)
	if ok {
		e.buf.Reset()
		e.zw.Reset(&e.buf)
	} else {
		e = new(gzipper)
		e.zw = gzip.NewWriter(&e.buf)
	}
	if _, err := e.zw.Write(data); err != nil {
		return nil, fmt.Errorf("codec: gzip write: %w", err)
	}
	if err := e.zw.Close(); err != nil {
		return nil, fmt.Errorf("codec: gzip close: %w", err)
	}
	out := make([]byte, e.buf.Len())
	copy(out, e.buf.Bytes())
	if e.buf.Cap() > maxPooledScratch {
		e.buf = bytes.Buffer{}
	}
	gzippers.Put(e)
	return out, nil
}

// Decode implements Codec.
func (Gzip) Decode(data []byte) ([]byte, error) {
	d, ok := gunzippers.Get().(*gunzipper)
	if !ok {
		d = new(gunzipper)
	}
	d.src.Reset(data)
	if err := d.zr.Reset(&d.src); err != nil {
		return nil, fmt.Errorf("codec: gzip open: %w", err)
	}
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(&d.zr); err != nil {
		return nil, fmt.Errorf("codec: gzip read: %w", err)
	}
	if err := d.zr.Close(); err != nil {
		return nil, fmt.Errorf("codec: gzip close: %w", err)
	}
	out := make([]byte, d.buf.Len())
	copy(out, d.buf.Bytes())
	// The pool must not keep the caller's input alive.
	d.src.Reset(nil)
	if d.buf.Cap() > maxPooledScratch {
		d.buf = bytes.Buffer{}
	}
	gunzippers.Put(d)
	return out, nil
}

// AESGCM encrypts with AES-256-GCM. Construct with NewAESGCM.
type AESGCM struct {
	aead cipher.AEAD
}

var _ Codec = (*AESGCM)(nil)

// NewAESGCM derives a 256-bit key from the passphrase (SHA-256) and returns
// an authenticated encryption codec.
func NewAESGCM(passphrase string) (*AESGCM, error) {
	if passphrase == "" {
		return nil, errors.New("codec: empty passphrase")
	}
	key := sha256.Sum256([]byte(passphrase))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("codec: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("codec: gcm: %w", err)
	}
	return &AESGCM{aead: aead}, nil
}

// Encode implements Codec: output is nonce || ciphertext, sealed into one
// buffer sized for both, under a fresh crypto/rand nonce on every call.
func (a *AESGCM) Encode(data []byte) ([]byte, error) {
	ns := a.aead.NonceSize()
	out := make([]byte, ns, ns+len(data)+a.aead.Overhead())
	if _, err := rand.Read(out); err != nil {
		return nil, fmt.Errorf("codec: nonce: %w", err)
	}
	return a.aead.Seal(out, out, data, nil), nil
}

// Decode implements Codec. Tampered or wrongly keyed data fails
// authentication.
func (a *AESGCM) Decode(data []byte) ([]byte, error) {
	ns := a.aead.NonceSize()
	if len(data) < ns {
		return nil, errors.New("codec: ciphertext too short")
	}
	out, err := a.aead.Open(nil, data[:ns], data[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("codec: decrypt: %w", err)
	}
	return out, nil
}

// Chain composes codecs: Encode applies them left to right, Decode right to
// left.
type Chain []Codec

var _ Codec = Chain(nil)

// Encode implements Codec.
func (c Chain) Encode(data []byte) ([]byte, error) {
	var err error
	for _, step := range c {
		data, err = step.Encode(data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Decode implements Codec.
func (c Chain) Decode(data []byte) ([]byte, error) {
	var err error
	for i := len(c) - 1; i >= 0; i-- {
		data, err = c[i].Decode(data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}
