package core

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failover"
	"repro/internal/service"
)

// TestErrorKindsSurviveHTTPBoundary round-trips each error kind through
// service.Handler -> real HTTP -> service.HTTPClient -> the client's full
// middleware chain, asserting errors.Is still identifies the kind on the
// far side. The rich SDK's failure handling, quota accounting, and breaker
// all dispatch on these kinds, so the wire envelope must preserve them.
func TestErrorKindsSurviveHTTPBoundary(t *testing.T) {
	cases := []struct {
		name    string
		remote  error
		want    error
		wantNot []error
	}{
		{
			name:    "unavailable",
			remote:  fmt.Errorf("backend down: %w", service.ErrUnavailable),
			want:    service.ErrUnavailable,
			wantNot: []error{service.ErrQuotaExceeded, service.ErrBadRequest},
		},
		{
			name:    "quota",
			remote:  fmt.Errorf("monthly cap: %w", service.ErrQuotaExceeded),
			want:    service.ErrQuotaExceeded,
			wantNot: []error{service.ErrUnavailable, service.ErrBadRequest},
		},
		{
			name:    "bad_request",
			remote:  fmt.Errorf("unparseable: %w", service.ErrBadRequest),
			want:    service.ErrBadRequest,
			wantNot: []error{service.ErrUnavailable, service.ErrQuotaExceeded},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			remote := service.Func{
				Meta: service.Info{Name: "remote-" + tc.name, Category: "nlu"},
				Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
					return service.Response{}, tc.remote
				},
			}
			srv := httptest.NewServer(service.Handler(remote))
			defer srv.Close()

			c := newClient(t, Config{})
			proxy := service.NewHTTPClient(remote.Meta, srv.URL, 5*time.Second)
			// MaxAttempts 1 keeps the unavailable case to a single wire
			// call; kind preservation is what is under test, not retries.
			c.mustRegister(proxy, WithRetry(failover.RetryPolicy{MaxAttempts: 1}))

			_, err := c.Invoke(context.Background(), remote.Meta.Name, service.Request{Text: "x"})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(err, %v)", err, tc.want)
			}
			for _, not := range tc.wantNot {
				if errors.Is(err, not) {
					t.Errorf("err = %v unexpectedly matches %v", err, not)
				}
			}
		})
	}
}

// TestErrorKindRoundTripDrivesSDKBehavior goes one step further: the kind
// surviving the wire must still trigger the SDK's kind-dispatched logic —
// a remote quota error is not retried, a remote unavailability is.
func TestErrorKindRoundTripDrivesSDKBehavior(t *testing.T) {
	var calls atomic.Int32
	remote := service.Func{
		Meta: service.Info{Name: "remote", Category: "nlu"},
		Fn: func(ctx context.Context, req service.Request) (service.Response, error) {
			calls.Add(1)
			if req.Op == "quota" {
				return service.Response{}, fmt.Errorf("cap: %w", service.ErrQuotaExceeded)
			}
			return service.Response{}, fmt.Errorf("down: %w", service.ErrUnavailable)
		},
	}
	srv := httptest.NewServer(service.Handler(remote))
	defer srv.Close()

	c := newClient(t, Config{})
	proxy := service.NewHTTPClient(remote.Meta, srv.URL, 5*time.Second)
	c.mustRegister(proxy, WithRetry(failover.RetryPolicy{MaxAttempts: 3}))

	if _, err := c.Invoke(context.Background(), "remote", service.Request{Op: "quota"}); !errors.Is(err, service.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("quota error retried: %d wire calls, want 1", n)
	}
	calls.Store(0)
	if _, err := c.Invoke(context.Background(), "remote", service.Request{Op: "down"}); !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("unavailable error: %d wire calls, want 3 (retried)", n)
	}
}
