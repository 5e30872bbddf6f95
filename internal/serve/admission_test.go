package serve

import (
	"testing"
	"time"
)

// TestTokenBucketBurstDefaultsToRate: a zero burst means the rate, so a
// bucket at 100/s admits 100 submissions at one instant and refuses the
// 101st.
func TestTokenBucketBurstDefaultsToRate(t *testing.T) {
	b := NewTokenBucket(100, 0)
	now := time.Now()
	for i := 0; i < 100; i++ {
		if !b.Allow(now) {
			t.Fatalf("submission %d refused; want a burst of 100", i+1)
		}
	}
	if b.Allow(now) {
		t.Error("submission 101 admitted at the same instant; want a burst of 100")
	}
}
