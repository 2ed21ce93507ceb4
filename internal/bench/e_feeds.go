package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/feature"
	"repro/internal/feedsys"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// E11FeedMatching measures continuous-feed matching throughput: the
// predicate-index matcher vs the linear-scan baseline, across subscription
// populations. Match sets are verified identical (modulo LSH candidate
// recall on concept-only subscriptions).
func E11FeedMatching(seed int64, scale float64) *Result {
	g := workload.NewGenerator(seed, 32, 8)
	r := rand.New(rand.NewSource(seed + 5))
	nItems := scaleInt(1500, scale, 300)

	table := metrics.NewTable("E11: feed matching throughput",
		"subscriptions", "indexed items/s", "linear items/s", "speedup", "avg matches/item")
	headline := map[string]float64{}
	for _, nSubs := range []int{1000, 5000, 10000} {
		nSubs = scaleInt(nSubs, scale, 200)
		indexed := feedsys.NewMatcher(32, seed)
		linear := feedsys.NewMatcher(32, seed)
		linear.Linear = true
		for i := 0; i < nSubs; i++ {
			topic := g.Topics[r.Intn(len(g.Topics))]
			var terms []string
			nTerms := 1 + r.Intn(2)
			for t := 0; t < nTerms; t++ {
				terms = append(terms, topic.Vocab[r.Intn(len(topic.Vocab))])
			}
			var concept feature.Vector
			var threshold float64
			if r.Intn(3) == 0 {
				concept = topic.Center.Clone()
				threshold = 0.7
			}
			s1 := feedsys.Subscription{ID: fmt.Sprintf("s%05d", i), Terms: terms, Concept: concept, Threshold: threshold}
			s2 := s1
			if err := indexed.Subscribe(&s1); err != nil {
				panic(err)
			}
			if err := linear.Subscribe(&s2); err != nil {
				panic(err)
			}
		}
		items := make([]feedsys.Item, nItems)
		for i := range items {
			topic := r.Intn(len(g.Topics))
			items[i] = feedsys.Item{
				ID:      fmt.Sprintf("i%05d", i),
				Text:    g.GenText(topic, 12),
				Concept: g.SampleConcept(topic, 0.15),
			}
		}
		// Interleaved repetitions, keeping the best of each mode: a single
		// indexed/linear pair is at the mercy of scheduler noise (a parallel
		// test run shares the CPUs), and min-of-N is the usual antidote.
		const reps = 5
		var totalMatches int
		indexedDur, linearDur := time.Duration(1<<62), time.Duration(1<<62)
		for rep := 0; rep < reps; rep++ {
			matches := 0
			start := time.Now()
			for _, it := range items {
				matches += len(indexed.Match(it))
			}
			indexedDur = min(indexedDur, time.Since(start))
			totalMatches = matches
			start = time.Now()
			for _, it := range items {
				linear.Match(it)
			}
			linearDur = min(linearDur, time.Since(start))
		}

		ixRate := float64(nItems) / indexedDur.Seconds()
		linRate := float64(nItems) / linearDur.Seconds()
		speedup := ixRate / linRate
		table.AddRow(nSubs, ixRate, linRate, speedup, float64(totalMatches)/float64(nItems))
		headline[fmt.Sprintf("speedup_%d", nSubs)] = speedup
	}
	return &Result{ID: "E11", Table: table, Headline: headline}
}
