//go:build !race

// Package race reports whether the binary was built with -race. Tests of
// allocation counts consult it: under the race detector sync.Pool drops a
// random share of what is put back, so a pooled path allocates at random.
package race

// Enabled is true in a -race build.
const Enabled = false
