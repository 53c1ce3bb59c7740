package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
	"github.com/crowder/crowder/internal/simjoin"
)

// ScaleRow is one dataset size of the scaling experiment.
type ScaleRow struct {
	Records int
	// SimJoin columns: prefix-filtered join over all pairs.
	SimJoinCandidates int
	SimJoinMillis     int64
	// Blocking columns: capped token blocking + candidate scoring.
	BlockingCandidates   int
	BlockingMillis       int64
	BlockingCompleteness float64
	// HITs produced by the two-tiered generator from the simjoin
	// candidates (k=10), showing crowd cost growth with data size.
	HITs int
}

// ScaleResult is the Section 9 scaling study: how machine-pass time,
// candidate counts and HIT counts grow with dataset size, and what a
// capped blocking scheme buys.
type ScaleResult struct {
	Threshold float64
	MaxBlock  int
	Rows      []ScaleRow
}

// Scale runs Restaurant-style datasets of growing size through the
// machine pass, both with the exact similarity join and with capped token
// blocking, and generates the two-tiered HITs for each size. The
// duplicate-pair count scales proportionally with the records.
func (e *Env) Scale(sizes []int, tau float64, maxBlock int) (*ScaleResult, error) {
	res := &ScaleResult{Threshold: tau, MaxBlock: maxBlock}
	for _, n := range sizes {
		dups := n / 8 // Restaurant's ratio: 106/858 ≈ 1/8
		d := dataset.RestaurantN(e.Seed+int64(n), n, dups)

		start := time.Now()
		scored := simjoin.Join(d.Table, simjoin.Options{Threshold: tau})
		joinMS := time.Since(start).Milliseconds()

		start = time.Now()
		blocked := cappedBlocking(d.Table, maxBlock, tau)
		blockMS := time.Since(start).Milliseconds()

		found := 0
		for _, p := range blocked {
			if d.Matches.Has(p.A, p.B) {
				found++
			}
		}
		completeness := float64(found) / float64(d.Matches.Len())

		hits, err := hitgen.TwoTiered{}.Generate(simjoin.Pairs(scored), 10)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ScaleRow{
			Records:              n,
			SimJoinCandidates:    len(scored),
			SimJoinMillis:        joinMS,
			BlockingCandidates:   len(blocked),
			BlockingMillis:       blockMS,
			BlockingCompleteness: completeness,
			HITs:                 len(hits),
		})
	}
	return res, nil
}

// cappedBlocking is the candidate generation the paper points to in
// footnote 1, token blocking: records sharing at least one token are
// candidates. Blocks are read from the table's inverted index, and a
// block of more than maxBlock records (a stop token such as "the" or a
// ubiquitous brand) is dropped, trading a little recall for a large
// candidate reduction. Each candidate is then scored by Jaccard and kept
// at or above tau. The pairs come back in no particular order.
func cappedBlocking(t *record.Table, maxBlock int, tau float64) []record.Pair {
	cands := record.NewPairSet()
	for _, block := range t.Postings() {
		if len(block) > maxBlock {
			continue
		}
		for j := 1; j < len(block); j++ {
			for _, a := range block[:j] {
				cands.Add(record.ID(a), record.ID(block[j]))
			}
		}
	}
	ids := t.TokenIDs()
	var out []record.Pair
	for p := range cands {
		if similarity.Jaccard(ids[p.A], ids[p.B]) >= tau {
			out = append(out, p)
		}
	}
	return out
}

// String renders the scaling table.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — scaling study (threshold %.2f, MaxBlock %d)\n", r.Threshold, r.MaxBlock)
	fmt.Fprintf(&b, "%-9s %14s %10s %16s %10s %14s %8s\n",
		"Records", "SimJoin cands", "ms", "Blocking cands", "ms", "Completeness", "HITs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9d %14d %10d %16d %10d %13.1f%% %8d\n",
			row.Records, row.SimJoinCandidates, row.SimJoinMillis,
			row.BlockingCandidates, row.BlockingMillis,
			100*row.BlockingCompleteness, row.HITs)
	}
	return b.String()
}
