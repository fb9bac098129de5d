package fleet

import (
	"fmt"
	"testing"
	"time"
)

// TestRateLimiterBucketCap pins the hard cap on the per-client map: a
// rapid many-source scan — every bucket mid-refill, so pruning alone
// evicts nothing — must not grow the map past maxBuckets.
func TestRateLimiterBucketCap(t *testing.T) {
	lim := NewRateLimiter(1, 4)
	clock := time.Unix(1700000000, 0)
	lim.setNow(func() time.Time { return clock })

	for i := 0; i < 2*maxBuckets; i++ {
		// The clock never advances, so no bucket ever refills and
		// pruneLocked finds nothing idle.
		if ok, _ := lim.Allow(fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)); !ok {
			t.Fatalf("fresh client %d denied", i)
		}
		if got := len(lim.buckets); got > maxBuckets {
			t.Fatalf("bucket map grew to %d after %d clients, cap %d", got, i+1, maxBuckets)
		}
	}

	// Established limits still work at the cap: an exhausted client
	// stays limited.
	key := "203.0.113.9"
	for i := 0; i < 4; i++ {
		if ok, _ := lim.Allow(key); !ok {
			t.Fatalf("burst take %d denied", i)
		}
	}
	if ok, retry := lim.Allow(key); ok || retry <= 0 {
		t.Fatalf("exhausted client allowed (ok=%v retry=%v)", ok, retry)
	}
}
