package main

import (
	"testing"

	"twobssd/internal/golden"
)

// The example prints exactly the output pinned by its SHA-256.
func TestOutput(t *testing.T) {
	golden.Stdout(t, "303b7e986670881aa638fabae263aa0a9d4071d07ee2de9f0260f9c338963b6e", main)
}
