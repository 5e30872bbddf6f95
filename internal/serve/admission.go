package serve

import (
	"sync"
	"time"
)

// TokenBucket is the server's admission throttle: Allow spends one token
// when available; tokens refill at Rate per second up to Burst. A zero or
// negative rate admits everything (the bucket is disabled).
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a bucket refilling at rate tokens/second with the
// given burst capacity. burst ≤ 0 means rate; a burst below 1 is raised to
// 1 so a conformant trickle is never starved. rate <= 0 disables
// throttling.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = rate
	}
	burst = max(burst, 1)
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow reports whether one request may be admitted at time now.
func (b *TokenBucket) Allow(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
