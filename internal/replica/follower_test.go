package replica

import (
	"testing"
	"time"
)

// TestFollowerConfigFill: unset backoffs take their defaults, and a
// MaxBackoff below Backoff is raised to Backoff — never to a cap above
// what the caller asked for.
func TestFollowerConfigFill(t *testing.T) {
	for _, tc := range []struct {
		backoff, max         time.Duration
		wantBackoff, wantMax time.Duration
	}{
		{0, 0, DefaultBackoff, DefaultMaxBackoff},
		{time.Second, 0, time.Second, DefaultMaxBackoff},
		{10 * time.Second, 0, 10 * time.Second, 10 * time.Second},
		{0, time.Second, DefaultBackoff, time.Second},
		{0, 100 * time.Millisecond, DefaultBackoff, DefaultBackoff},
		{2 * time.Second, time.Second, 2 * time.Second, 2 * time.Second},
		{time.Second, 3 * time.Second, time.Second, 3 * time.Second},
	} {
		c := FollowerConfig{Backoff: tc.backoff, MaxBackoff: tc.max}
		c.fill()
		if c.Backoff != tc.wantBackoff || c.MaxBackoff != tc.wantMax {
			t.Errorf("{Backoff: %v, MaxBackoff: %v} filled to %v, %v; want %v, %v",
				tc.backoff, tc.max, c.Backoff, c.MaxBackoff, tc.wantBackoff, tc.wantMax)
		}
	}
}
