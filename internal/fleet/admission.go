package fleet

import (
	"math"
	"net"
	"sync"
	"time"
)

// RateLimiter is a per-client token bucket keyed by remote address: the
// create endpoint's defense against one client machine-gunning
// sessions. Each key accrues Rate tokens per second up to Burst; a
// create takes one token. All methods are safe for concurrent use.
type RateLimiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets is a hard cap on the per-client map: at the cap an insert
// first prunes idle (full) buckets, then evicts the idlest remaining
// one, so a source-address scan can never grow the map without bound.
const maxBuckets = 4096

// NewRateLimiter builds a limiter granting rate tokens/second with the
// given burst (minimum 1). A nil *RateLimiter disables limiting.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*tokenBucket),
	}
}

// setNow injects a clock for tests.
func (l *RateLimiter) setNow(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
}

// Allow takes one token from key's bucket. When the bucket is empty it
// reports false and how long until the next token accrues — the
// Retry-After hint.
func (l *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, found := l.buckets[key]
	if !found {
		if len(l.buckets) >= maxBuckets {
			l.pruneLocked(now)
			for len(l.buckets) >= maxBuckets {
				l.evictIdlestLocked(now)
			}
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if l.rate <= 0 {
		return false, time.Hour
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// pruneLocked evicts buckets that have fully refilled (idle clients).
func (l *RateLimiter) pruneLocked(now time.Time) {
	for key, b := range l.buckets {
		if math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate) >= l.burst {
			delete(l.buckets, key)
		}
	}
}

// evictIdlestLocked removes the single bucket closest to fully refilled
// (ties broken by least-recently-touched) — the hard cap enforcement
// behind pruneLocked. Evicting the most-refilled bucket forgets the
// least about currently rate-limited clients.
func (l *RateLimiter) evictIdlestLocked(now time.Time) {
	var victim string
	best := -1.0
	var bestLast time.Time
	for key, b := range l.buckets {
		eff := math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		if victim == "" || eff > best || (eff == best && b.last.Before(bestLast)) {
			victim, best, bestLast = key, eff, b.last
		}
	}
	if victim != "" {
		delete(l.buckets, victim)
	}
}

// clientKey extracts the per-client limiter key from an HTTP remote
// address (the host without the ephemeral port).
func clientKey(remoteAddr string) string {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		return remoteAddr
	}
	return host
}
