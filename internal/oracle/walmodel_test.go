package oracle

import (
	"strings"
	"testing"
)

func lifecycleFixture() *WalLifecycle {
	m := NewWalLifecycle()
	m.Append("a", "pay-a", 32, 64)
	m.Append("b", "pay-b", 64, 96)
	m.Checkpoint(96, map[string]string{"a": "pay-a", "b": "pay-b"})
	m.Append("c", "pay-c", 96, 128)
	return m
}

func TestWalLifecycleCleanRecovery(t *testing.T) {
	m := lifecycleFixture()
	got := m.VerifyRecovery(96,
		[]WalRecord{{Key: "c", Payload: "pay-c", Start: 96, End: 128}},
		map[string]string{"a": "pay-a", "b": "pay-b"})
	if len(got) != 0 {
		t.Fatalf("clean recovery flagged: %v", got)
	}
	// Recovery to an older durable point (meta write lost) with a fresh
	// snapshot is also possible.
	if got := NewWalLifecycle().VerifyRecovery(0, nil, map[string]string{}); len(got) != 0 {
		t.Fatalf("fresh recovery flagged: %v", got)
	}
}

func TestWalLifecyclePhantoms(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *WalLifecycle) []string
		want string
	}{
		{"unissued checkpoint", func(m *WalLifecycle) []string {
			return m.VerifyRecovery(77, nil, nil)
		}, "never issued"},
		{"phantom record", func(m *WalLifecycle) []string {
			return m.VerifyRecovery(96, []WalRecord{{Key: "z", Payload: "x", Start: 96, End: 200}}, nil)
		}, "never appended"},
		{"corrupt payload", func(m *WalLifecycle) []string {
			return m.VerifyRecovery(96, []WalRecord{{Key: "c", Payload: "WRONG", Start: 96, End: 128}}, nil)
		}, "differs"},
		{"below checkpoint", func(m *WalLifecycle) []string {
			return m.VerifyRecovery(96, []WalRecord{{Key: "b", Payload: "pay-b", Start: 64, End: 96}}, nil)
		}, "below the checkpoint"},
		{"out of order", func(m *WalLifecycle) []string {
			m.Append("d", "pay-d", 128, 160)
			return m.VerifyRecovery(0, []WalRecord{
				{Key: "d", Payload: "pay-d", Start: 128, End: 160},
				{Key: "c", Payload: "pay-c", Start: 96, End: 128},
			}, nil)
		}, "not in LSN order"},
		{"impossible snapshot", func(m *WalLifecycle) []string {
			return m.VerifyRecovery(96, nil, map[string]string{"a": "forged"})
		}, "matches no persisted"},
	}
	for _, tc := range cases {
		got := tc.run(lifecycleFixture())
		found := false
		for _, p := range got {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want phantom containing %q, got %v", tc.name, tc.want, got)
		}
	}
}

func TestWalLifecycleNewerSnapshotAccepted(t *testing.T) {
	// The snapshot file is written before the WAL meta page, so after a
	// crash between the two it is one checkpoint ahead of the meta —
	// that must verify cleanly.
	m := lifecycleFixture()
	m.Append("d", "pay-d", 128, 160)
	m.Checkpoint(160, map[string]string{"a": "pay-a", "b": "pay-b", "c": "pay-c", "d": "pay-d"})
	got := m.VerifyRecovery(96, nil,
		map[string]string{"a": "pay-a", "b": "pay-b", "c": "pay-c", "d": "pay-d"})
	if len(got) != 0 {
		t.Fatalf("newer snapshot flagged: %v", got)
	}
}
