package oracle

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"twobssd/internal/core"
	"twobssd/internal/ftl"
	"twobssd/internal/sim"
)

// A range that wraps past the top of uint64 is out of range on every
// layer that checks one. The call returns that layer's range error at
// once: it spends no virtual time, and it queues nothing that could
// fault the simulation later.
func TestRangesThatWrapAreRejected(t *testing.T) {
	const top = ftl.LBA(math.MaxUint64)
	for _, c := range []struct {
		name string
		want error
		call func(p *sim.Proc, s *core.TwoBSSD, m *Model) error
	}{
		{"device write", ftl.ErrLBAOutOfRange, func(p *sim.Proc, s *core.TwoBSSD, _ *Model) error {
			return s.Device().WritePages(p, top, make([]byte, 2*s.PageSize()))
		}},
		{"device read", ftl.ErrLBAOutOfRange, func(p *sim.Proc, s *core.TwoBSSD, _ *Model) error {
			return s.Device().ReadPagesInto(p, top, make([]byte, 2*s.PageSize()))
		}},
		{"BA_PIN", core.ErrOutOfLBA, func(p *sim.Proc, s *core.TwoBSSD, _ *Model) error {
			return s.BAPin(p, 0, 0, top-5, 10)
		}},
		{"model pin", core.ErrOutOfLBA, func(_ *sim.Proc, _ *core.TwoBSSD, m *Model) error {
			return m.Pin(0, 0, top-5, 10)
		}},
		{"model block write", ftl.ErrLBAOutOfRange, func(_ *sim.Proc, s *core.TwoBSSD, m *Model) error {
			return m.BlockWrite(top, make([]byte, 2*s.PageSize()))
		}},
		{"model block read", ftl.ErrLBAOutOfRange, func(_ *sim.Proc, _ *core.TwoBSSD, m *Model) error {
			_, err := m.BlockRead(top, 2)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			s := core.New(env, core.SmallConfig())
			m := NewModel(ModelConfig{PageSize: s.PageSize(), BufBytes: s.Config().BABufferBytes,
				MaxEntries: s.Config().MaxEntries, Pages: s.Device().Pages()})
			var err error
			var spent sim.Duration
			env.Go("wrap", func(p *sim.Proc) {
				start := env.Now()
				err = c.call(p, s, m)
				spent = sim.Duration(env.Now() - start)
				if derr := s.Device().Drain(p); derr != nil {
					t.Errorf("drain: %v", derr)
				}
			})
			if fault := runCatching(env); fault != "" {
				t.Fatalf("the simulation faulted: %s", fault)
			}
			if !errors.Is(err, c.want) || spent != 0 {
				t.Errorf("got %v after %v, want %v at once", err, spent, c.want)
			}
		})
	}
}

// runCatching runs env and returns the panic that stopped it, if any.
func runCatching(env *sim.Env) (fault string) {
	defer func() {
		if r := recover(); r != nil {
			fault = fmt.Sprint(r)
		}
	}()
	env.Run()
	return ""
}
