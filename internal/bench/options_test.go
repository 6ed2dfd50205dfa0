package bench

import (
	"reflect"
	"testing"

	"twobssd/internal/fleet"
	"twobssd/internal/ftl"
	"twobssd/internal/jfs"
	"twobssd/internal/kvaof"
	"twobssd/internal/lsm"
	"twobssd/internal/pglite"
	"twobssd/internal/wal"
)

// TestOptionCountRatchet pins the number of independently settable
// options on the stack's config structs. Every field is a dimension the
// tests and the benchmark have to cover, so adding one is a decision to
// argue for in review (and removing one lowers the number here).
func TestOptionCountRatchet(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want int
	}{
		{wal.Config{}, 11},
		{lsm.Config{}, 13},
		{pglite.Config{}, 6},
		{kvaof.Config{}, 3},
		{jfs.Config{}, 3},
		{fleet.Config{}, 10},
		{ftl.Config{}, 2},
	} {
		typ := reflect.TypeOf(c.cfg)
		if got := typ.NumField(); got != c.want {
			t.Errorf("%s has %d fields, want %d: a new option needs two existing callers that set it differently; a value the code can derive is not an option",
				typ, got, c.want)
		}
	}
}
