package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodes is the number of ring points per member. 64 keeps the assignment
// spread within a few percent of uniform for single-digit cluster sizes while
// the whole ring stays small enough to rebuild on startup without care.
const vnodes = 64

// ring is a consistent-hash ring over the cluster members (peer base URLs
// plus the empty string for the local execution slot). Membership is fixed at
// construction: health is a routing-time concern (owners returns the full
// successor order and the caller takes the first usable member), so a
// flapping peer never reshuffles keys that were not on it.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

func newRing(members []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// owners returns every distinct member in ring order starting at the key's
// successor point: the first entry is the key's owner, the rest are the
// spill-over order when the owner is unusable.
func (r *ring) owners(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, 4)
	seen := make(map[string]bool, 4)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		out = append(out, p.member)
	}
	return out
}

// hash64 maps a string onto the ring's key space via SHA-256 (the same hash
// family request keys already use, so placement inherits its uniformity).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
