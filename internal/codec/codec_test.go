package codec

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, c Codec, data []byte) []byte {
	t.Helper()
	enc, err := c.Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return dec
}

func TestIdentityRoundTrip(t *testing.T) {
	data := []byte("hello")
	if got := roundTrip(t, Identity{}, data); !bytes.Equal(got, data) {
		t.Errorf("round trip = %q", got)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	data := []byte(strings.Repeat("the market improved. ", 100))
	if got := roundTrip(t, Gzip{}, data); !bytes.Equal(got, data) {
		t.Error("gzip round trip corrupted data")
	}
}

func TestGzipShrinksRepetitiveData(t *testing.T) {
	data := []byte(strings.Repeat("abcdefgh", 1000))
	enc, err := Gzip{}.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(data)/4 {
		t.Errorf("compressed %d -> %d, expected strong shrink", len(data), len(enc))
	}
}

func TestGzipDecodeGarbage(t *testing.T) {
	if _, err := (Gzip{}).Decode([]byte("definitely not gzip")); err == nil {
		t.Error("expected error decoding garbage")
	}
}

func TestAESGCMRoundTrip(t *testing.T) {
	c, err := NewAESGCM("secret passphrase")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("confidential knowledge base record")
	if got := roundTrip(t, c, data); !bytes.Equal(got, data) {
		t.Error("AES round trip corrupted data")
	}
}

func TestAESGCMCiphertextDiffers(t *testing.T) {
	c, err := NewAESGCM("k")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("same plaintext")
	e1, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(e1, e2) {
		t.Error("two encryptions identical — nonce reuse")
	}
	if bytes.Contains(e1, data) {
		t.Error("plaintext visible in ciphertext")
	}
}

func TestAESGCMWrongKeyFails(t *testing.T) {
	c1, err := NewAESGCM("right")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewAESGCM("wrong")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c1.Encode([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Decode(enc); err == nil {
		t.Error("wrong key decrypted successfully")
	}
}

func TestAESGCMTamperDetected(t *testing.T) {
	c, err := NewAESGCM("k")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode([]byte("authentic"))
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 0xFF
	if _, err := c.Decode(enc); err == nil {
		t.Error("tampered ciphertext accepted")
	}
}

func TestAESGCMShortCiphertext(t *testing.T) {
	c, err := NewAESGCM("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short ciphertext accepted")
	}
}

func TestAESGCMEmptyPassphrase(t *testing.T) {
	if _, err := NewAESGCM(""); err == nil {
		t.Error("empty passphrase accepted")
	}
}

func TestChainCompressThenEncrypt(t *testing.T) {
	enc, err := NewAESGCM("key")
	if err != nil {
		t.Fatal(err)
	}
	chain := Chain{Gzip{}, enc}
	data := []byte(strings.Repeat("knowledge base statement. ", 200))
	out := roundTrip(t, chain, data)
	if !bytes.Equal(out, data) {
		t.Error("chain round trip corrupted data")
	}
	// Compression must happen before encryption: the result should be
	// much smaller than the plaintext despite encryption overhead.
	encoded, err := chain.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(encoded) >= len(data)/2 {
		t.Errorf("chain output %d of %d bytes — compression likely after encryption", len(encoded), len(data))
	}
}

func TestChainEmpty(t *testing.T) {
	data := []byte("untouched")
	if got := roundTrip(t, Chain{}, data); !bytes.Equal(got, data) {
		t.Error("empty chain altered data")
	}
}

func TestRoundTripProperty(t *testing.T) {
	enc, err := NewAESGCM("prop")
	if err != nil {
		t.Fatal(err)
	}
	codecs := map[string]Codec{
		"identity": Identity{},
		"gzip":     Gzip{},
		"aes":      enc,
		"chain":    Chain{Gzip{}, enc},
	}
	for name, c := range codecs {
		c := c
		t.Run(name, func(t *testing.T) {
			f := func(data []byte) bool {
				e, err := c.Encode(data)
				if err != nil {
					return false
				}
				d, err := c.Decode(e)
				if err != nil {
					return false
				}
				if len(data) == 0 {
					return len(d) == 0
				}
				return bytes.Equal(d, data)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}
