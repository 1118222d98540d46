package remotestore

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Handler exposes the cluster through the same HTTP surface a single
// store node serves (PUT/GET/DELETE /kv/{key}, GET /keys), plus
// POST /sync to drain the offline queue and GET /cluster for membership
// and breaker state — so cmd/cloudstore can front a sharded cluster
// without callers noticing the difference.
func (cl *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	// failed answers a store error: 400 for a key checkKey refuses, which
	// no node could take either, and 502 for the nodes' failure otherwise.
	failed := func(w http.ResponseWriter, err error) {
		status := http.StatusBadGateway
		if errors.Is(err, errBadKey) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
	}
	mux.HandleFunc("PUT /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, ok := readObject(w, r, DefaultMaxObjectBytes)
		if !ok {
			return
		}
		if err := cl.PutCtx(r.Context(), r.PathValue("key"), data); err != nil {
			failed(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, err := cl.GetCtx(r.Context(), r.PathValue("key"))
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(data)
		case errors.Is(err, ErrNotFound):
			http.NotFound(w, r)
		case errors.Is(err, ErrOffline):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			failed(w, err)
		}
	})
	mux.HandleFunc("DELETE /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		if err := cl.DeleteCtx(r.Context(), r.PathValue("key")); err != nil {
			failed(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /keys", func(w http.ResponseWriter, r *http.Request) {
		keys, err := cl.KeysCtx(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(keys)
	})
	mux.HandleFunc("POST /sync", func(w http.ResponseWriter, r *http.Request) {
		pushed, err := cl.SyncCtx(r.Context())
		w.Header().Set("Content-Type", "application/json")
		status := http.StatusOK
		var msg string
		if err != nil {
			status = http.StatusBadGateway
			msg = err.Error()
		}
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]any{"pushed": pushed, "error": msg})
	})
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"nodes":       cl.Nodes(),
			"replicas":    cl.Replicas(),
			"writeQuorum": cl.WriteQuorum(),
			"offline":     cl.Offline(),
			"pending":     cl.PendingWrites(),
			"breakers":    cl.BreakerStates(),
		})
	})
	return mux
}
