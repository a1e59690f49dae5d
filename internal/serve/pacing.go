package serve

import "time"

// Lineage pacing runs on a capture clock: a live encoder captures
// frame k at t₀ + k·T, so a lineage's due times form a fixed grid of
// step T = Config.FrameInterval, and a late wake-up delays one frame
// instead of every frame after it. One rule — "the lineage missed a
// whole frame slot" — decides both when the grid re-anchors and when
// a full farm counts as overload.

// slipped reports whether a lineage due at due has, at now, fallen a
// whole interval or more behind its grid. With interval 0 (unpaced)
// every due lineage has slipped.
func slipped(due, now time.Time, interval time.Duration) bool {
	return now.Sub(due) >= interval
}

// advanceDue returns a lineage's next due time after a dispatch at now,
// and whether the grid was re-anchored because the dispatch slipped. A
// first dispatch anchors the grid at now; a slipped one re-anchors it
// there, dropping the missed slots so a late lineage never bursts to
// catch up; any other dispatch moves one step along the grid. Unpaced
// lineages (interval 0) keep their due time: they are always due.
func advanceDue(due, now time.Time, interval time.Duration, first bool) (next time.Time, reanchored bool) {
	if interval <= 0 {
		return due, false
	}
	if first || slipped(due, now, interval) {
		return now.Add(interval), !first
	}
	return due.Add(interval), false
}

// mergedDue is the due time of two lineages folded into one: the
// earlier grid, so no member of either waits longer than it would have.
func mergedDue(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}
