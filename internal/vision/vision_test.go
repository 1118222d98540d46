package vision

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/aggregate"
	"repro/internal/service"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("img-1", 7)
	b := Generate("img-1", 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different images")
	}
	c := Generate("img-1", 8)
	if reflect.DeepEqual(a.TrueLabels, c.TrueLabels) && a.Width == c.Width {
		t.Error("different seeds produced identical images")
	}
	if len(a.TrueLabels) < 1 || len(a.TrueLabels) > 5 {
		t.Errorf("label count = %d", len(a.TrueLabels))
	}
	if !sort.StringsAreSorted(a.TrueLabels) {
		t.Error("labels not sorted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := Generate("img-rt", 42)
	data := img.Encode()
	back, err := decode(img.ID, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Width != img.Width || back.Height != img.Height {
		t.Errorf("dims = %dx%d, want %dx%d", back.Width, back.Height, img.Width, img.Height)
	}
	if !reflect.DeepEqual(back.TrueLabels, img.TrueLabels) {
		t.Errorf("labels = %v, want %v", back.TrueLabels, img.TrueLabels)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		img := Generate("p", seed)
		back, err := decode("p", img.Encode())
		return err == nil && reflect.DeepEqual(back.TrueLabels, img.TrueLabels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), []byte("NOTMAGIC-------"), Generate("g", 1).Encode()[:8]} {
		if _, err := decode("bad", data); err == nil {
			t.Errorf("Decode accepted %d garbage bytes", len(data))
		}
	}
}

func TestSharpEngineRecoversLabels(t *testing.T) {
	e := NewEngine(ProfileSharp)
	hits, total := 0, 0
	for i := 0; i < 50; i++ {
		img := Generate(fmt.Sprintf("img-%d", i), int64(i))
		rec, err := e.Recognize(img.ID, img.Encode())
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, l := range rec.LabelSet() {
			got[l] = true
		}
		for _, l := range img.TrueLabels {
			total++
			if got[l] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.95 {
		t.Errorf("sharp engine recall = %.2f, want >= 0.95", recall)
	}
}

func TestEngineDeterministicPerImage(t *testing.T) {
	e := NewEngine(ProfileFast)
	img := Generate("det", 3)
	a, err := e.Recognize(img.ID, img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Recognize(img.ID, img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same engine and image produced different recognitions")
	}
}

func TestFastEngineNoisierThanSharp(t *testing.T) {
	sharp, fast := NewEngine(ProfileSharp), NewEngine(ProfileFast)
	score := func(e *Engine) float64 {
		var f1 float64
		n := 60
		for i := 0; i < n; i++ {
			img := Generate(fmt.Sprintf("q-%d", i), int64(1000+i))
			rec, err := e.Recognize(img.ID, img.Encode())
			if err != nil {
				t.Fatal(err)
			}
			f1 += aggregate.Score(rec.LabelSet(), img.TrueLabels).F1
		}
		return f1 / float64(n)
	}
	if s, f := score(sharp), score(fast); s <= f {
		t.Errorf("sharp F1 %.3f should beat fast F1 %.3f", s, f)
	}
}

func TestConfidencesValid(t *testing.T) {
	e := NewEngine(ProfileFast)
	img := Generate("conf", 5)
	rec, err := e.Recognize(img.ID, img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range rec.Tags {
		if tag.Confidence < 0 || tag.Confidence > 1 {
			t.Errorf("confidence %v out of [0,1]", tag.Confidence)
		}
		if i > 0 && rec.Tags[i-1].Confidence < tag.Confidence {
			t.Error("tags not sorted by confidence")
		}
	}
}

func TestServiceAdapter(t *testing.T) {
	e := NewEngine(ProfileSharp)
	svc := e.Service(service.Info{Name: "vision-sharp", Category: "vision"})
	img := Generate("svc", 9)
	resp, err := svc.Invoke(context.Background(), service.Request{
		Op: "recognize", Key: img.ID, Data: img.Encode(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecognition(resp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Engine != "vision-sharp" || len(rec.Tags) == 0 {
		t.Errorf("recognition = %+v", rec)
	}
}

func TestServiceErrors(t *testing.T) {
	svc := NewEngine(ProfileSharp).Service(service.Info{Name: "v", Category: "vision"})
	if _, err := svc.Invoke(context.Background(), service.Request{Op: "recognize"}); !errors.Is(err, service.ErrBadRequest) {
		t.Errorf("empty image error = %v", err)
	}
	if _, err := svc.Invoke(context.Background(), service.Request{Op: "classify", Data: []byte{1}}); !errors.Is(err, service.ErrBadRequest) {
		t.Errorf("bad op error = %v", err)
	}
	if _, err := svc.Invoke(context.Background(), service.Request{Op: "recognize", Data: []byte("junk")}); !errors.Is(err, service.ErrBadRequest) {
		t.Errorf("garbage image error = %v", err)
	}
}

func TestPayloadSizeVariesWithArea(t *testing.T) {
	small := Image{ID: "s", Width: 320, Height: 240, TrueLabels: []string{"sky"}}
	large := Image{ID: "l", Width: 1280, Height: 960, TrueLabels: []string{"sky"}}
	if len(large.Encode()) <= len(small.Encode()) {
		t.Error("larger image should encode to more bytes (latency parameter realism)")
	}
}
