package main

import (
	"testing"

	"twobssd/internal/golden"
)

// The example prints exactly the output pinned by its SHA-256.
func TestOutput(t *testing.T) {
	golden.Stdout(t, "0fa164a0e19d90f19d936b196351f995a4af2bc5ae2c1466d29a091f4158a3e6", main)
}
