package service

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

func echoService(name, category string) Func {
	return Func{
		Meta: Info{Name: name, Category: category, CostPerCall: 0.01},
		Fn: func(_ context.Context, req Request) (Response, error) {
			return Response{Body: []byte(req.Text)}, nil
		},
	}
}

func TestRequestCacheKeyStable(t *testing.T) {
	a := Request{Op: "analyze", Text: "hello", Params: map[string]string{"x": "1", "y": "2"}}
	b := Request{Op: "analyze", Text: "hello", Params: map[string]string{"y": "2", "x": "1"}}
	if a.CacheKey("") != b.CacheKey("") {
		t.Error("identical requests with reordered params produced different keys")
	}
}

func TestRequestCacheKeyDistinguishes(t *testing.T) {
	base := Request{Op: "analyze", Text: "hello"}
	variants := []Request{
		{Op: "analyze2", Text: "hello"},
		{Op: "analyze", Text: "hello!"},
		{Op: "analyze", Text: "hello", Key: "k"},
		{Op: "analyze", Text: "hello", Query: "q"},
		{Op: "analyze", Text: "hello", Data: []byte{1}},
		{Op: "analyze", Text: "hello", Params: map[string]string{"a": "b"}},
	}
	seen := map[string]bool{base.CacheKey(""): true}
	for i, v := range variants {
		k := v.CacheKey("")
		if seen[k] {
			t.Errorf("variant %d collided: %+v", i, v)
		}
		seen[k] = true
	}
}

func TestRequestCacheKeyFieldBoundaries(t *testing.T) {
	// Field-boundary ambiguity must not produce colliding keys.
	a := Request{Op: "ab", Key: "c"}
	b := Request{Op: "a", Key: "bc"}
	if a.CacheKey("") == b.CacheKey("") {
		t.Error("field boundary collision")
	}
}

func TestRequestCacheKeyProperty(t *testing.T) {
	// Property: the key is a pure function of the request.
	f := func(op, key, query, text string, data []byte) bool {
		r1 := Request{Op: op, Key: key, Query: query, Text: text, Data: data}
		r2 := Request{Op: op, Key: key, Query: query, Text: text, Data: data}
		return r1.CacheKey("") == r2.CacheKey("")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgSize(t *testing.T) {
	r := Request{Key: "ab", Query: "cde", Text: "fg", Data: []byte{1, 2, 3}}
	if got := r.ArgSize(); got != 10 {
		t.Errorf("ArgSize = %d, want 10", got)
	}
}

func TestInfoCost(t *testing.T) {
	i := Info{CostPerCall: 0.5, CostPerByte: 0.001}
	req := Request{Data: make([]byte, 1000)}
	if got := i.Cost(req); got != 1.5 {
		t.Errorf("Cost = %v, want 1.5", got)
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(echoService("a", "nlu")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(echoService("b", "nlu")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(echoService("c", "search")); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("a"); !ok {
		t.Error("Get(a) missing")
	}
	if _, ok := r.Get("zzz"); ok {
		t.Error("Get(zzz) should miss")
	}
	nlu := r.Category("nlu")
	if len(nlu) != 2 || nlu[0].Info().Name != "a" || nlu[1].Info().Name != "b" {
		t.Errorf("Category(nlu) wrong: %v", nlu)
	}
	if got := r.Names(); len(got) != 3 || got[0] != "a" {
		t.Errorf("Names = %v", got)
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(echoService("", "nlu")); err == nil {
		t.Error("empty name should be rejected")
	}
	if err := r.Register(echoService("a", "")); err == nil {
		t.Error("empty category should be rejected")
	}
	if err := r.Register(echoService("a", "nlu")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(echoService("a", "other")); err == nil {
		t.Error("duplicate name should be rejected")
	}
}

func TestRegistryCategoryIsCopy(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(echoService("a", "nlu")); err != nil {
		t.Fatal(err)
	}
	got := r.Category("nlu")
	got[0] = nil
	if fresh := r.Category("nlu"); fresh[0] == nil {
		t.Error("Category returned shared backing array")
	}
}

func TestFuncAdapter(t *testing.T) {
	svc := echoService("echo", "test")
	resp, err := svc.Invoke(context.Background(), Request{Text: "hi"})
	if err != nil || string(resp.Body) != "hi" {
		t.Errorf("Invoke = (%q, %v)", resp.Body, err)
	}
	if svc.Info().Name != "echo" {
		t.Errorf("Info = %+v", svc.Info())
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{ErrUnavailable, ErrQuotaExceeded, ErrBadRequest}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Errorf("error %d and %d should be distinct", i, j)
			}
		}
	}
}
