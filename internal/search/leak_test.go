package search

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/lexicon"
	"repro/internal/webcorpus"
)

// TestMain holds the package's tests to leaving no goroutine behind: once
// they have run, the goroutine count must fall back to what it was before
// the first, within a bound, or the run fails with the stacks of what is
// left — a PMI counter that BuildIndex did not join.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := goroutinesBackTo(before, 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// goroutinesBackTo waits up to bound for the goroutine count to fall to n
// and reports the leftover stacks if it does not.
func goroutinesBackTo(n int, bound time.Duration) error {
	for deadline := time.Now().Add(bound); runtime.NumGoroutine() > n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Errorf("search tests leaked goroutines: %d running, %d before the tests\n%s",
				runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
	}
	return nil
}

// TestBuildIndexDigestOneProc builds TestBuildIndexDigest's index with
// one P, so the scan and the PMI counter take turns instead of running
// side by side: the handoff must not depend on the counter keeping up,
// and the index must come out the same bit for bit.
func TestBuildIndexDigestOneProc(t *testing.T) {
	const want uint64 = 0xe7984b2dce53dc08 // TestBuildIndexDigest's
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	idx := BuildIndex(webcorpus.Generate(webcorpus.Config{Seed: 4, NumDocs: 1000}), WithExpansion(lexicon.PMIConfig{}))
	if got := buildDigest(idx); got != want {
		t.Fatalf("index digest with GOMAXPROCS(1) %#x, want %#x", got, want)
	}
}

// TestBuildIndexJoinsCounter: a build with expansion on returns with its
// PMI counter finished, also when the scan hands it no batch (no
// document) or only the last, partial one (one document).
func TestBuildIndexJoinsCounter(t *testing.T) {
	one := webcorpus.Generate(webcorpus.Config{Seed: 4, NumDocs: 1})
	for _, c := range []struct {
		name   string
		corpus *webcorpus.Corpus
	}{
		{"empty", &webcorpus.Corpus{}},
		{"one-document", one},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			idx := BuildIndex(c.corpus, WithExpansion(lexicon.PMIConfig{}))
			if idx.expander == nil {
				t.Fatal("built with expansion on, but the index has no expander")
			}
			if err := goroutinesBackTo(before, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}
