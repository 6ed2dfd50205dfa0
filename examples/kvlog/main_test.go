package main

import (
	"testing"

	"twobssd/internal/golden"
)

// The example prints exactly the output pinned by its SHA-256.
func TestOutput(t *testing.T) {
	golden.Stdout(t, "981607a452225abed7620315c46dc8c309745dbbc339ab7f39a58917eaa05016", main)
}
