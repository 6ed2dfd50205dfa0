package main

import (
	"testing"

	"twobssd/internal/golden"
)

// The example prints exactly the output pinned by its SHA-256.
func TestOutput(t *testing.T) {
	golden.Stdout(t, "bf866f1ce751373dcf3f18be9298d0eece9f53abdf4d422b4ea4b1594440fd7d", main)
}
