package main

import (
	"testing"

	"twobssd/internal/golden"
)

// The example prints exactly the output pinned by its SHA-256.
func TestOutput(t *testing.T) {
	golden.Stdout(t, "72ffc2078eb97bb3b8c1d1923d4fd47710f7a47459f8464935de11e8cb475ad8", main)
}
