// Package kvstore implements the key-value storage substrate the
// personalized knowledge base uses (paper §3: data can be stored in
// "relational database management systems (RDBMS), key-value stores, RDF
// triple stores, and ... CSV files"). It provides an in-memory store and a
// file-backed persistent store with the same interface, snapshots, and
// ordered iteration.
package kvstore

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("kvstore: not found")

// Store is the common key-value interface. Values are opaque bytes; the
// knowledge base layers encoding, encryption, and compression above this.
type Store interface {
	// Put stores value under key, replacing any existing value.
	Put(key string, value []byte) error
	// Get returns the value for key or ErrNotFound.
	Get(key string) ([]byte, error)
	// Delete removes key; deleting an absent key is not an error.
	Delete(key string) error
	// Keys returns all keys in sorted order.
	Keys() ([]string, error)
	// Len returns the number of stored pairs.
	Len() (int, error)
}

// Memory is an in-memory Store, safe for concurrent use.
type Memory struct {
	mu   sync.RWMutex
	data map[string][]byte
	// sorted is the key set in order, kept from one Keys call to the next
	// and never written to once stored. An insert or a delete changes the
	// key set: it drops sorted and advances gen, so a Keys call that
	// collected the old set cannot store it. An overwrite changes neither.
	sorted []string
	gen    uint64
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{data: make(map[string][]byte)}
}

// Put implements Store. The value is copied.
func (m *Memory) Put(key string, value []byte) error {
	cp := make([]byte, len(value))
	copy(cp, value)
	m.mu.Lock()
	n := len(m.data)
	m.data[key] = cp
	if len(m.data) != n {
		m.sorted, m.gen = nil, m.gen+1
	}
	m.mu.Unlock()
	return nil
}

// Get implements Store. The returned slice is a copy.
func (m *Memory) Get(key string) ([]byte, error) {
	m.mu.RLock()
	v, ok := m.data[key]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, nil
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	n := len(m.data)
	delete(m.data, key)
	if len(m.data) != n {
		m.sorted, m.gen = nil, m.gen+1
	}
	m.mu.Unlock()
	return nil
}

// Keys implements Store. The returned slice is a copy. The key set is
// sorted once per change to it, outside the lock, not once per call.
func (m *Memory) Keys() ([]string, error) {
	m.mu.RLock()
	keys, gen := m.sorted, m.gen
	rebuild := keys == nil
	if rebuild {
		keys = make([]string, 0, len(m.data))
		for k := range m.data {
			keys = append(keys, k)
		}
	}
	m.mu.RUnlock()
	if rebuild {
		sort.Strings(keys)
		m.mu.Lock()
		if m.gen == gen {
			m.sorted = keys
		}
		m.mu.Unlock()
	}
	out := make([]string, len(keys))
	copy(out, keys)
	return out, nil
}

// Len implements Store.
func (m *Memory) Len() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data), nil
}

// Snapshot returns a deep copy of the current contents.
func (m *Memory) Snapshot() map[string][]byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string][]byte, len(m.data))
	for k, v := range m.data {
		cp := make([]byte, len(v))
		copy(cp, v)
		out[k] = cp
	}
	return out
}

// File is a persistent Store backed by a single gob-encoded file. Every
// mutation rewrites the file atomically (temp + rename); contents load at
// open. It favors simplicity and crash safety over write throughput, which
// matches its knowledge-base role of durable local storage.
type File struct {
	mu   sync.Mutex
	path string
	data map[string][]byte
}

var _ Store = (*File)(nil)

// OpenFile opens (or creates) a file-backed store at path.
func OpenFile(path string) (*File, error) {
	f := &File{path: path, data: make(map[string][]byte)}
	file, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return f, nil
		}
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	defer func() { _ = file.Close() }()
	if err := gob.NewDecoder(file).Decode(&f.data); err != nil {
		return nil, fmt.Errorf("kvstore: decode %s: %w", path, err)
	}
	return f, nil
}

// flush must be called with the lock held.
func (f *File) flush() error {
	tmp := f.path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("kvstore: create temp: %w", err)
	}
	if err := gob.NewEncoder(file).Encode(f.data); err != nil {
		_ = file.Close()
		return fmt.Errorf("kvstore: encode: %w", err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("kvstore: close temp: %w", err)
	}
	if err := os.Rename(tmp, f.path); err != nil {
		return fmt.Errorf("kvstore: rename: %w", err)
	}
	return nil
}

// Put implements Store.
func (f *File) Put(key string, value []byte) error {
	cp := make([]byte, len(value))
	copy(cp, value)
	f.mu.Lock()
	defer f.mu.Unlock()
	old, had := f.data[key]
	f.data[key] = cp
	if err := f.flush(); err != nil {
		// Roll back the in-memory state so memory and disk agree.
		if had {
			f.data[key] = old
		} else {
			delete(f.data, key)
		}
		return err
	}
	return nil
}

// Get implements Store.
func (f *File) Get(key string) ([]byte, error) {
	f.mu.Lock()
	v, ok := f.data[key]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, nil
}

// Delete implements Store.
func (f *File) Delete(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	old, had := f.data[key]
	if !had {
		return nil
	}
	delete(f.data, key)
	if err := f.flush(); err != nil {
		f.data[key] = old
		return err
	}
	return nil
}

// Keys implements Store.
func (f *File) Keys() ([]string, error) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.data))
	for k := range f.data {
		keys = append(keys, k)
	}
	f.mu.Unlock()
	sort.Strings(keys)
	return keys, nil
}

// Len implements Store.
func (f *File) Len() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.data), nil
}
