//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// Guards on allocation counts and pooled state skip under it: the detector
// makes sync.Pool drop a quarter of what is put back, on purpose.
package raceflag

// Enabled reports whether the race detector is compiled in.
const Enabled = false
