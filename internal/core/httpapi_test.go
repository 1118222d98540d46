package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

func newAPIServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	c, err := NewClient(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	echo := service.Func{
		Meta: service.Info{Name: "echo", Category: "nlu", CostPerCall: 0.5},
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			return service.Response{Body: []byte("echo:" + req.Text), ContentType: "text/plain"}, nil
		},
	}
	if err := c.Register(echo, WithCacheable()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(c))
	t.Cleanup(srv.Close)
	return srv, c
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAPIInvoke(t *testing.T) {
	srv, _ := newAPIServer(t)
	resp := postJSON(t, srv.URL+"/v1/invoke", invokeBody{
		Service: "echo",
		Request: service.Request{Op: "analyze", Text: "hello"},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out service.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if string(out.Body) != "echo:hello" {
		t.Errorf("Body = %q", out.Body)
	}
}

func TestAPIInvokeUnknownService404(t *testing.T) {
	srv, _ := newAPIServer(t)
	resp := postJSON(t, srv.URL+"/v1/invoke", invokeBody{Service: "ghost"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestAPIInvokeCategory(t *testing.T) {
	srv, _ := newAPIServer(t)
	resp := postJSON(t, srv.URL+"/v1/invoke-category", invokeBody{
		Category: "nlu",
		Request:  service.Request{Text: "doc"},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Response service.Response `json:"response"`
		Attempts []struct {
			Service string `json:"service"`
		} `json:"attempts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if string(out.Response.Body) != "echo:doc" || len(out.Attempts) != 1 {
		t.Errorf("out = %+v", out)
	}
}

func TestAPIInvokeAll(t *testing.T) {
	srv, _ := newAPIServer(t)
	resp := postJSON(t, srv.URL+"/v1/invoke-all", invokeBody{
		Category: "nlu",
		Request:  service.Request{Text: "x"},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			Service string `json:"service"`
			Error   string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Service != "echo" || out.Results[0].Error != "" {
		t.Errorf("out = %+v", out)
	}
}

func TestAPIInvokeAllServicePanic(t *testing.T) {
	srv, c := newAPIServer(t)
	boom := service.Func{
		Meta: service.Info{Name: "boom", Category: "nlu"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			panic("index out of range [-1]")
		},
	}
	echo2 := service.Func{
		Meta: service.Info{Name: "echo2", Category: "nlu"},
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			return service.Response{Body: []byte("echo2:" + req.Text), ContentType: "text/plain"}, nil
		},
	}
	for _, svc := range []service.Service{boom, echo2} {
		if err := c.Register(svc); err != nil {
			t.Fatal(err)
		}
	}
	results, err := c.InvokeAll(context.Background(), "nlu", service.Request{Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"echo": "echo:x", "echo2": "echo2:x"}
	for _, r := range results {
		if body, ok := want[r.Service]; ok && (r.Err != nil || string(r.Response.Body) != body) {
			t.Errorf("client: %s = %+v, want %q", r.Service, r, body)
		}
		if r.Service == "boom" && r.Err == nil {
			t.Error("client: the panicking service reported no error")
		}
	}
	resp := postJSON(t, srv.URL+"/v1/invoke-all", invokeBody{
		Category: "nlu",
		Request:  service.Request{Text: "x"},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			Service  string           `json:"service"`
			Response service.Response `json:"response"`
			Error    string           `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("facade: %d results, want 3: %+v", len(out.Results), out)
	}
	for _, r := range out.Results {
		if body, ok := want[r.Service]; ok && (r.Error != "" || string(r.Response.Body) != body) {
			t.Errorf("facade: %s = %+v, want %q", r.Service, r, body)
		}
		if r.Service == "boom" && !strings.Contains(r.Error, "panicked") {
			t.Errorf("facade: boom's error = %q, want the panic", r.Error)
		}
	}
}

func TestAPIRank(t *testing.T) {
	srv, _ := newAPIServer(t)
	resp := postJSON(t, srv.URL+"/v1/rank", invokeBody{Category: "nlu"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Ranked []struct {
			Name  string  `json:"Name"`
			Score float64 `json:"Score"`
		} `json:"ranked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Ranked) != 1 || out.Ranked[0].Name != "echo" {
		t.Errorf("out = %+v", out)
	}
}

func TestAPIServicesAndStats(t *testing.T) {
	srv, _ := newAPIServer(t)
	for _, path := range []string{"/v1/services", "/v1/stats", "/v1/cache/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestAPICacheInvalidate(t *testing.T) {
	srv, c := newAPIServer(t)
	// Prime the cache through the API.
	r1 := postJSON(t, srv.URL+"/v1/invoke", invokeBody{Service: "echo", Request: service.Request{Text: "q"}})
	r1.Body.Close()
	if c.CacheStats().Size == 0 {
		t.Fatal("cache not primed")
	}
	resp := postJSON(t, srv.URL+"/v1/cache/invalidate", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("status = %d, want 204", resp.StatusCode)
	}
	if c.CacheStats().Size != 0 {
		t.Error("cache not cleared")
	}
}

func TestAPIBadJSON(t *testing.T) {
	srv, _ := newAPIServer(t)
	resp, err := http.Post(srv.URL+"/v1/invoke", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestAPICrossLanguageShape(t *testing.T) {
	// The façade exists for non-Go clients: verify plain-JSON in/out with
	// no Go-specific types leaking.
	srv, _ := newAPIServer(t)
	raw := `{"service":"echo","request":{"op":"analyze","text":"plain json"}}`
	resp, err := http.Post(srv.URL+"/v1/invoke", "application/json", bytes.NewReader([]byte(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var generic map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&generic); err != nil {
		t.Fatal(err)
	}
	if _, ok := generic["body"]; !ok {
		t.Errorf("response missing body field: %v", generic)
	}
}

func ExampleNewAPI() {
	client, err := NewClient(Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer client.Close()
	_ = client.Register(service.Func{
		Meta: service.Info{Name: "hello", Category: "demo"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			return service.Response{Body: []byte("hi")}, nil
		},
	})
	api := NewAPI(client)
	srv := httptest.NewServer(api)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/invoke", "application/json",
		bytes.NewReader([]byte(`{"service":"hello","request":{}}`)))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var out service.Response
	_ = json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println(string(out.Body))
	// Output: hi
}
