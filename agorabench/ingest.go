package main

import (
	"math"
	"sync"
	"time"

	"repro/internal/docstore"
)

// ingestLog is what the open-loop ingester saw. Batch latency runs from
// the batch's due time to its acknowledgement, so a stall is charged to
// every batch queued behind it.
type ingestLog struct {
	mu      sync.Mutex
	lat     []float64 // ms; failed batches are +Inf
	late    []float64 // ms the ingester sent behind schedule
	batches int64
	failed  int64
	docs    int64
	acked   []*docstore.Document

	// Store-level writes (one PutBatch per shard or node touched).
	put     []float64 // ms
	freeze  []float64 // ms of the writes during which a freeze ran
	freezes uint64
	epochs  uint64
}

// storeWrite records one Store.PutBatch call: its duration, the epochs it
// published and the freezes it ran.
func (l *ingestLog) storeWrite(d time.Duration, epochs, freezes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.put = append(l.put, ms(d))
	l.epochs += epochs
	if freezes > 0 {
		l.freezes += freezes
		l.freeze = append(l.freeze, ms(d))
	}
}

// ingestLoop sends batches on a fixed schedule, one every interval, until
// the next batch would be due at or after deadline. A batch due while an
// earlier one is still in flight goes out as soon as that one returns.
func ingestLoop(batches [][]*docstore.Document, interval time.Duration, deadline time.Time, send func([]*docstore.Document) error, log *ingestLog) {
	start := time.Now()
	for i, b := range batches {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		err := send(b)
		acked := time.Now()
		log.mu.Lock()
		log.batches++
		log.late = append(log.late, ms(sent.Sub(due)))
		if err != nil {
			log.failed++
			log.lat = append(log.lat, math.Inf(1))
		} else {
			log.docs += int64(len(b))
			log.lat = append(log.lat, ms(acked.Sub(due)))
			log.acked = append(log.acked, b...)
		}
		log.mu.Unlock()
	}
}
