package rpc

import "time"

// SetClock replaces the cache's clock, so a test outside the package can
// expire entries without waiting. Set it before the cache sees traffic.
func (c *ResponseCache) SetClock(now func() time.Time) { c.now = now }
