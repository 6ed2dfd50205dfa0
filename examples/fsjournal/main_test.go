package main

import (
	"testing"

	"twobssd/internal/golden"
)

// The example prints exactly the output pinned by its SHA-256.
func TestOutput(t *testing.T) {
	golden.Stdout(t, "7e0eb48234f19d359ae9ea208afb12b5a47b3ba9b52f3f8f081fd199b8367a3f", main)
}
