package main

import (
	"testing"

	"twobssd/internal/golden"
)

// The example prints exactly the output pinned by its SHA-256.
func TestOutput(t *testing.T) {
	golden.Stdout(t, "41e27cce2505f64e6db3d26dfdb9c146466c5c839678865fdd6be3de6e8c3666", main)
}
