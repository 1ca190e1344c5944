// Package shard partitions the validation plane: a Coordinator spreads
// the fleet across N validator shards by consistent hashing over the
// Clos pod structure. A shard owns the table cache of its devices; the
// coordinator routes every FIB pull to the owner, so the one
// plan→check→splice (rcdc.Validator.Revalidate) runs over it unchanged
// and its report is byte-identical (modulo timing) to a single-engine
// sweep — the horizontal-scaling story of the paper's Figure 5
// deployment, where RCDC instances divide the datacenter between them
// and each pulls the tables of its own part (§2.4, §2.6.1).
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultReplicas is the virtual-node count per shard on the ring. More
// virtual nodes smooth the partition sizes; 64 keeps the spread within a
// few percent for the shard counts the serving layer uses.
const defaultReplicas = 64

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

// NewRing builds a ring of n shards with the given virtual-node count
// per shard (0 means the default).
func NewRing(n, replicas int) *Ring {
	if n < 1 {
		n = 1
	}
	if replicas < 1 {
		replicas = defaultReplicas
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
