// Package shard is a standalone oracle for the validation plane: a
// Coordinator spreads the fleet across N table caches by consistent
// hashing over the Clos pod structure, routes every FIB pull to the
// owning cache, and runs the one plan→check→splice
// (rcdc.Validator.Revalidate) over them. Its report renders
// byte-identically (modulo timing) to a single-engine sweep, which is
// what the benchmark checks. No serving path uses it:
// rcdc.Validator.Workers already parallelises the one plan.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// replicas is the virtual-node count per shard on the ring. More virtual
// nodes smooth the partition sizes; 64 keeps the spread within a few
// percent for small shard counts.
const replicas = 64

// Ring is a consistent-hash ring mapping partition keys to shards.
// Adding or removing one shard moves only the keys adjacent to its
// virtual nodes, so a resharded coordinator revalidates a fraction of
// the fleet rather than all of it.
type Ring struct {
	points []ringPoint // ascending by hash
	shards int
}

type ringPoint struct {
	hash  uint32
	shard int
}

// NewRing builds a ring of n shards.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	r := &Ring{shards: n, points: make([]ringPoint, 0, n*replicas)}
	for s := 0; s < n; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("shard-%d#%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Shard maps a partition key to its owning shard: the first virtual
// node at or clockwise of the key's hash.
func (r *Ring) Shard(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

func hashKey(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}
