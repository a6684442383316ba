package gc

import "fleetsim/internal/units"

// Controller implements ART's dynamic heap-growth trigger: after each GC the
// heap limit is set to the live size times a growth factor (plus a minimum
// headroom), and a new cycle is requested once allocations since the last GC
// push usage past the limit. §7.4 of the paper studies factors 1.1 and 2.0.
type Controller struct {
	// GrowthFactor multiplies the post-GC live size to form the next
	// trigger threshold.
	GrowthFactor float64
	// MinHeadroom is the least allocation budget granted after a GC, so
	// tiny heaps do not collect on every allocation. NewController's 2 MiB
	// deliberately does NOT scale with the device: the background GC
	// cadence it induces (roughly one threshold collection per minute of
	// cached trickle allocation) is part of the calibrated Android
	// behaviour; see DESIGN.md §4.
	MinHeadroom int64

	liveAtGC  int64
	threshold int64
}

// NewController returns a controller with the given growth factor. ART's
// default foreground behaviour corresponds to a generous factor (~2.0);
// background heaps are trimmed to ~1.1 ("the threshold is set to a value
// close to the memory usage", §4.2).
func NewController(factor float64) *Controller {
	c := &Controller{GrowthFactor: factor, MinHeadroom: 2 * units.MiB}
	c.Update(0)
	return c
}

// Update recomputes the threshold after a GC that left live bytes live.
func (c *Controller) Update(live int64) {
	c.liveAtGC = live
	t := int64(float64(live) * c.GrowthFactor)
	if t < live+c.MinHeadroom {
		t = live + c.MinHeadroom
	}
	c.threshold = t
}

// Threshold returns the current trigger threshold in bytes.
func (c *Controller) Threshold() int64 { return c.threshold }

// ShouldCollect reports whether current usage (live at last GC + bytes
// allocated since) has crossed the threshold.
func (c *Controller) ShouldCollect(bytesSinceGC int64) bool {
	return c.liveAtGC+bytesSinceGC > c.threshold
}
