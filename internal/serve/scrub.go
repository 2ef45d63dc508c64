// Background scrubbing and repair: the daemon periodically re-verifies
// every tier segment's block checksums (tiered.Store.Scrub) so bitrot
// that lands after startup is found while the data is still repairable.
// A segment that fails is quarantined by the tier — its keys recompute on
// touch — and in cluster mode a dirty pass kicks an anti-entropy round
// so any record the shard lost is re-fetched from its standby replica.
package serve

import (
	"sync"
	"time"
)

// ScrubReport is one scrub pass's findings.
type ScrubReport struct {
	// Segments counts the segments verified; Quarantined the ones that
	// failed verification and were dropped from the tier.
	Segments    int
	Quarantined int
	// BytesScanned is the block bytes read across the pass.
	BytesScanned int64
	Elapsed      time.Duration
}

// Clean reports whether the pass found no corruption.
func (r ScrubReport) Clean() bool { return r.Quarantined == 0 }

// scrubber runs periodic scrub passes until stopped.
type scrubber struct {
	s        *Server
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// startScrubber launches the background scrub loop (no-op without a
// disk tier, or when ScrubInterval is negative).
func (s *Server) startScrubber() {
	if s.tier == nil || s.cfg.ScrubInterval < 0 {
		return
	}
	sc := &scrubber{
		s:        s,
		interval: s.cfg.ScrubInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.scrub = sc
	go sc.loop()
}

func (s *Server) stopScrubber() {
	if s.scrub == nil {
		return
	}
	s.scrub.stopOnce.Do(func() { close(s.scrub.stop) })
	<-s.scrub.done
}

func (sc *scrubber) loop() {
	defer close(sc.done)
	t := time.NewTicker(sc.interval)
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-t.C:
			sc.s.runScrub()
		}
	}
}

// ScrubNow runs one synchronous scrub pass and returns its report; ok is
// false when the daemon has no durable store. Harnesses and operators use
// it to verify storage on demand instead of waiting for the interval.
func (s *Server) ScrubNow() (ScrubReport, bool) {
	if s.tier == nil {
		return ScrubReport{}, false
	}
	return s.runScrub(), true
}

// runScrub runs one pass over the tier's segments, re-verifying every
// block checksum under the configured bandwidth throttle.
func (s *Server) runScrub() ScrubReport {
	rate := s.cfg.ScrubRate
	start := time.Now()
	var scanned int64
	throttle := func(n int) {
		scanned += int64(n)
		// Sleep whenever the pass is running ahead of the byte budget.
		ahead := time.Duration(float64(scanned)/float64(rate)*float64(time.Second)) - time.Since(start)
		if ahead > 0 {
			time.Sleep(ahead)
		}
	}
	segments, quarantined := s.tier.Scrub(throttle)
	rep := ScrubReport{
		Segments:     segments,
		Quarantined:  quarantined,
		BytesScanned: scanned,
		Elapsed:      time.Since(start),
	}
	s.metrics.scrubRuns.Add(1)
	if rep.Clean() {
		return rep
	}
	s.metrics.scrubCorrupt.Add(int64(quarantined))
	s.cfg.Logger.Error("scrub quarantined corrupt segments",
		"quarantined", quarantined, "segments", segments, "bytes_scanned", scanned)
	if cn := s.cnode(); cn != nil && cn.ae != nil {
		// Ask the replica layer to reconcile out of band: any record the
		// quarantined segment held comes back from the Gray-neighbor
		// standby.
		cn.ae.requestKick()
	}
	return rep
}
