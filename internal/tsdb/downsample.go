package tsdb

import (
	"fmt"
	"sort"
	"time"
)

// Downsampling supports OMNI's long-horizon retention ("up to two years of
// operational data immediately available"): raw samples older than a
// boundary are replaced by per-window aggregates, preserving queryability
// at a fraction of the storage.

// AggKind selects the per-window aggregate kept by Downsample.
type AggKind int

// Aggregates.
const (
	AggAvg AggKind = iota
	AggMin
	AggMax
	AggLast
)

// Downsample replaces, in every series, the samples older than before
// (ms) with one aggregated sample per resolution window. It returns the
// number of samples eliminated (original minus aggregated). Newer samples
// are untouched.
func (db *DB) Downsample(before int64, resolution time.Duration, kind AggKind) (int, error) {
	if resolution <= 0 {
		return 0, fmt.Errorf("tsdb: resolution must be positive")
	}
	res := resolution.Milliseconds()
	eliminated := 0
	for _, s := range db.idx.All() {
		s.Lock()
		// The prefix of samples older than the boundary.
		n := sort.Search(len(s.Data), func(i int) bool { return s.Data[i].T >= before })
		if n < 2 {
			s.Unlock()
			continue
		}
		old := s.Data[:n]
		agg := make([]Sample, 0, n/4+1)
		i := 0
		for i < n {
			window := old[i].T - old[i].T%res
			sum, minV, maxV := 0.0, old[i].V, old[i].V
			last := old[i].V
			count := 0
			for i < n && old[i].T-old[i].T%res == window {
				v := old[i].V
				sum += v
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				last = v
				count++
				i++
			}
			var v float64
			switch kind {
			case AggAvg:
				v = sum / float64(count)
			case AggMin:
				v = minV
			case AggMax:
				v = maxV
			case AggLast:
				v = last
			}
			agg = append(agg, Sample{T: window, V: v})
		}
		if len(agg) < n {
			eliminated += n - len(agg)
			newData := make([]Sample, 0, len(agg)+len(s.Data)-n)
			newData = append(newData, agg...)
			newData = append(newData, s.Data[n:]...)
			s.Data = newData
		}
		s.Unlock()
	}
	return eliminated, nil
}
