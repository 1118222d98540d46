// Package vision implements the visual-recognition substrate: the local
// equivalent of the image-analysis cognitive services in the paper's
// Figure 1. Real image classification is out of scope offline, so images
// are synthetic: a structured binary format whose pixel payload
// deterministically encodes the scene's true labels. Recognition engines
// decode the payload with profile-dependent noise, giving the SDK visual
// services with genuine quality differences — the same shape as the NLU
// substrate, over a different modality (paper §2.2: "similar types of
// analyses can be performed on other types of data such as image files").
package vision

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/service"
	"repro/internal/xrand"
)

// labels is the closed vocabulary of scene labels.
var labels = []string{
	"person", "crowd", "building", "skyline", "car", "truck", "road",
	"tree", "forest", "mountain", "river", "ocean", "beach", "sky",
	"dog", "cat", "bird", "horse", "food", "drink", "table", "chair",
	"screen", "chart", "document", "logo", "flag", "aircraft", "ship",
	"train", "bridge", "night", "snow", "rain", "sunset", "indoor",
}

const magic = "IMG1"

// Image is one synthetic image: dimensions, true labels, and a pixel
// payload derived from them.
type Image struct {
	// ID names the image.
	ID string
	// Width and Height are the nominal dimensions.
	Width, Height int
	// TrueLabels are the ground-truth scene labels, sorted.
	TrueLabels []string
}

// Generate creates a deterministic synthetic image with 1-5 labels drawn
// from the vocabulary.
func Generate(id string, seed int64) Image {
	rng := xrand.New(seed)
	n := 1 + rng.Intn(5)
	labels := xrand.Sample(rng, labels, n)
	sort.Strings(labels)
	return Image{
		ID:         id,
		Width:      320 + 64*rng.Intn(16),
		Height:     240 + 48*rng.Intn(16),
		TrueLabels: labels,
	}
}

// Encode serializes the image into its binary form: a header plus a pixel
// payload whose bytes deterministically encode the labels (what a real
// classifier would recover from actual pixels).
func (img Image) Encode() []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	_ = binary.Write(&buf, binary.BigEndian, uint16(img.Width))
	_ = binary.Write(&buf, binary.BigEndian, uint16(img.Height))
	_ = binary.Write(&buf, binary.BigEndian, uint16(len(img.TrueLabels)))
	for _, l := range img.TrueLabels {
		_ = binary.Write(&buf, binary.BigEndian, uint16(len(l)))
		buf.WriteString(l)
	}
	// Pixel payload: deterministic filler proportional to the image
	// area, so latency parameters (argument size) vary realistically.
	area := img.Width * img.Height / 64
	h := fnv.New64a()
	_, _ = h.Write([]byte(img.ID))
	rng := xrand.New(int64(h.Sum64()))
	pixels := make([]byte, area)
	for i := range pixels {
		pixels[i] = byte(rng.Intn(256))
	}
	buf.Write(pixels)
	return buf.Bytes()
}

// decode parses the binary form back into an Image. It is what a perfect
// recognizer sees; engines add noise on top.
func decode(id string, data []byte) (Image, error) {
	if len(data) < len(magic)+6 || string(data[:len(magic)]) != magic {
		return Image{}, fmt.Errorf("vision: %s is not an encoded image", id)
	}
	r := bytes.NewReader(data[len(magic):])
	var w, h, n uint16
	for _, dst := range []*uint16{&w, &h, &n} {
		if err := binary.Read(r, binary.BigEndian, dst); err != nil {
			return Image{}, fmt.Errorf("vision: truncated header: %w", err)
		}
	}
	if n > 64 {
		return Image{}, fmt.Errorf("vision: implausible label count %d", n)
	}
	labels := make([]string, 0, n)
	for i := 0; i < int(n); i++ {
		var ln uint16
		if err := binary.Read(r, binary.BigEndian, &ln); err != nil {
			return Image{}, fmt.Errorf("vision: truncated label length: %w", err)
		}
		lb := make([]byte, ln)
		if _, err := r.Read(lb); err != nil {
			return Image{}, fmt.Errorf("vision: truncated label: %w", err)
		}
		labels = append(labels, string(lb))
	}
	return Image{ID: id, Width: int(w), Height: int(h), TrueLabels: labels}, nil
}

// Tag is one recognized label with confidence.
type Tag struct {
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
}

// Recognition is the analysis result for one image.
type Recognition struct {
	Engine string `json:"engine"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Tags   []Tag  `json:"tags"`
}

// LabelSet returns the recognized labels, sorted.
func (r Recognition) LabelSet() []string {
	out := make([]string, len(r.Tags))
	for i, t := range r.Tags {
		out[i] = t.Label
	}
	sort.Strings(out)
	return out
}

// Profile tunes a recognition engine's quality, mirroring the NLU
// profiles.
type Profile struct {
	// Name identifies the engine.
	Name string
	// MissRate is the probability of dropping a true label.
	MissRate float64
	// SpuriousRate is the probability of adding one wrong label.
	SpuriousRate float64
	// ConfidenceNoise jitters reported confidences.
	ConfidenceNoise float64
	// Seed decorrelates engines.
	Seed int64
}

// Stock profiles.
var (
	ProfileSharp = Profile{Name: "vision-sharp", MissRate: 0.02, SpuriousRate: 0.02, ConfidenceNoise: 0.03, Seed: 401}
	ProfileFast  = Profile{Name: "vision-fast", MissRate: 0.15, SpuriousRate: 0.10, ConfidenceNoise: 0.10, Seed: 402}
)

// Engine recognizes labels in encoded images. Deterministic per (engine,
// image) like the NLU engines, so caching is sound.
type Engine struct {
	profile Profile
}

// NewEngine returns an engine with the given profile.
func NewEngine(p Profile) *Engine { return &Engine{profile: p} }

// Recognize analyzes one encoded image.
func (e *Engine) Recognize(id string, data []byte) (Recognition, error) {
	img, err := decode(id, data)
	if err != nil {
		return Recognition{}, err
	}
	h := fnv.New64a()
	_, _ = h.Write(data)
	rng := xrand.New(e.profile.Seed ^ int64(h.Sum64()))
	rec := Recognition{Engine: e.profile.Name, Width: img.Width, Height: img.Height}
	for _, l := range img.TrueLabels {
		if rng.Bernoulli(e.profile.MissRate) {
			continue
		}
		conf := 0.9 + e.profile.ConfidenceNoise*rng.NormFloat64()
		rec.Tags = append(rec.Tags, Tag{Label: l, Confidence: clamp01(conf)})
	}
	if rng.Bernoulli(e.profile.SpuriousRate) {
		wrong := labels[rng.Intn(len(labels))]
		rec.Tags = append(rec.Tags, Tag{Label: wrong, Confidence: clamp01(0.4 + 0.2*rng.Float64())})
	}
	sort.Slice(rec.Tags, func(i, j int) bool {
		if rec.Tags[i].Confidence != rec.Tags[j].Confidence {
			return rec.Tags[i].Confidence > rec.Tags[j].Confidence
		}
		return rec.Tags[i].Label < rec.Tags[j].Label
	})
	return rec, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Service wraps the engine as a service.Service: op "recognize" with the
// encoded image in Data and its ID in Key.
func (e *Engine) Service(info service.Info) service.Service {
	return service.Func{
		Meta: info,
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			if req.Op != "recognize" && req.Op != "" {
				return service.Response{}, fmt.Errorf("vision: unsupported op %q: %w", req.Op, service.ErrBadRequest)
			}
			if len(req.Data) == 0 {
				return service.Response{}, fmt.Errorf("vision: empty image: %w", service.ErrBadRequest)
			}
			rec, err := e.Recognize(req.Key, req.Data)
			if err != nil {
				return service.Response{}, fmt.Errorf("%w: %w", service.ErrBadRequest, err)
			}
			body, err := json.Marshal(rec)
			if err != nil {
				return service.Response{}, fmt.Errorf("vision: encode: %w", err)
			}
			return service.Response{Body: body, ContentType: "application/json"}, nil
		},
	}
}

// DecodeRecognition parses a service response body.
func DecodeRecognition(resp service.Response) (Recognition, error) {
	var rec Recognition
	if err := json.Unmarshal(resp.Body, &rec); err != nil {
		return Recognition{}, fmt.Errorf("vision: decode: %w", err)
	}
	return rec, nil
}
