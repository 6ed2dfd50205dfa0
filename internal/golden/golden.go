// Package golden pins a program's output by its SHA-256: a virtual-time
// deterministic run prints the same bytes every time, so a change that
// means to move none of its numbers leaves the digest as it is, and one
// that moves some says so in the test it edits.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// Stdout runs fn with os.Stdout sent to a file and fails t unless what
// fn printed hashes to want.
func Stdout(t testing.TB, want string, fn func()) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = stdout }()
		fn()
	}()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != want {
		t.Errorf("stdout SHA-256 %x, want %s:\n%s", sum, want, out)
	}
}
