package metrics

import (
	"sort"
	"sync"
)

// Registry maps service names to their monitors. It is safe for concurrent
// use and creates monitors lazily.
type Registry struct {
	mu       sync.RWMutex
	monitors map[string]*Monitor
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{monitors: make(map[string]*Monitor)}
}

// Monitor returns the monitor for name, creating it on first use.
func (r *Registry) Monitor(name string) *Monitor {
	r.mu.RLock()
	m, ok := r.monitors[name]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.monitors[name]; ok {
		return m
	}
	m = NewMonitor(name)
	r.monitors[name] = m
	return m
}

// Names returns the registered service names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.monitors))
	for n := range r.monitors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshots returns a snapshot for every registered service, sorted by
// service name.
func (r *Registry) Snapshots() []Snapshot {
	names := r.Names()
	out := make([]Snapshot, 0, len(names))
	for _, n := range names {
		out = append(out, r.Monitor(n).Snapshot())
	}
	return out
}
