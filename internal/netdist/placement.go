package netdist

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
)

// ShardSpec is one shard of a placed relation: the site owning the
// shard's tuples.
type ShardSpec struct {
	Leader string
}

// RelPlacement describes where one relation lives. A single shard is
// today's whole-site ownership (KeyCol is ignored); more than one shard
// hash-partitions the relation by KeyCol: tuple t lives on shard
// ShardOf(t[KeyCol]).
type RelPlacement struct {
	KeyCol int
	Shards []ShardSpec
}

// Sharded reports whether the relation is hash-partitioned.
func (rp RelPlacement) Sharded() bool { return len(rp.Shards) > 1 }

// Placement maps each remotely-placed relation to its shards. Relations
// absent from the map are local to the coordinator. Placement implements
// core.Sharder, so the same map that routes the coordinator's wire
// traffic tells the scheduler which relations are mirrors and which
// column their key groups are fetched by.
type Placement map[string]RelPlacement

// Remote implements core.Sharder: every placed relation is a mirror.
func (p Placement) Remote(rel string) bool {
	_, ok := p[rel]
	return ok
}

// ShardKey implements core.Sharder: the key column of a
// hash-partitioned relation.
func (p Placement) ShardKey(rel string) (int, bool) {
	rp, ok := p[rel]
	if !ok || !rp.Sharded() {
		return 0, false
	}
	return rp.KeyCol, true
}

// ShardOf returns the shard owning the key: FNV-1a over the key's
// canonical wire encoding, mod shard count. Hashing the canonical text (not the
// process-local fingerprint) keeps the mapping stable across processes,
// so every coordinator and every test agree on tuple ownership.
func (p Placement) ShardOf(rel string, key ast.Value) int {
	rp := p[rel]
	if len(rp.Shards) == 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(relation.ValueKey(key)))
	return int(h.Sum32() % uint32(len(rp.Shards)))
}

// owner returns the one shard of rel that holds every tuple in rg, and
// ok, when there is one to route to: rg is a point on the shard key of a
// sharded relation.
func (p Placement) owner(rel string, rg relation.Range) (int, bool) {
	if v, ok := rg.Point(); ok && p[rel].Sharded() && rg.Col == p[rel].KeyCol {
		return p.ShardOf(rel, v), true
	}
	return 0, false
}

// PlacementFromSites lifts the classic whole-relation site specs into a
// placement: each relation becomes a single shard owned by its site. New
// routes through this, so the default deployment is bit-identical to the
// pre-placement coordinator.
func PlacementFromSites(sites []SiteSpec) Placement {
	p := Placement{}
	for _, spec := range sites {
		for _, rel := range spec.Relations {
			p[rel] = RelPlacement{Shards: []ShardSpec{{Leader: spec.Site}}}
		}
	}
	return p
}

// ParseShardSpec parses the ccheck flag syntax
// "rel@keycol=site1,site2,..." into a sharded relation placement. One
// site is allowed (whole ownership with an explicit key column); a site
// named twice is not.
func ParseShardSpec(s string) (string, RelPlacement, error) {
	head, sitesPart, ok := strings.Cut(s, "=")
	if !ok {
		return "", RelPlacement{}, fmt.Errorf("netdist: shard spec %q is not rel@keycol=site1,site2,...", s)
	}
	rel, colPart, ok := strings.Cut(strings.TrimSpace(head), "@")
	if !ok || strings.TrimSpace(rel) == "" {
		return "", RelPlacement{}, fmt.Errorf("netdist: shard spec %q is not rel@keycol=site1,site2,...", s)
	}
	col, err := strconv.Atoi(strings.TrimSpace(colPart))
	if err != nil || col < 0 {
		return "", RelPlacement{}, fmt.Errorf("netdist: shard spec %q: bad key column %q", s, colPart)
	}
	rp := RelPlacement{KeyCol: col}
	for _, site := range strings.Split(sitesPart, ",") {
		site = strings.TrimSpace(site)
		if site == "" {
			return "", RelPlacement{}, fmt.Errorf("netdist: shard spec %q has an empty site", s)
		}
		rp.Shards = append(rp.Shards, ShardSpec{Leader: site})
	}
	rel = strings.TrimSpace(rel)
	if err := (Placement{rel: rp}).validate(); err != nil {
		return "", RelPlacement{}, err
	}
	return rel, rp, nil
}

// validate checks structural invariants: sharded relations need a
// non-negative key column, and within one relation every shard has a
// site and no site holds two shards (it could not tell their tuples
// apart through the whole-relation wire protocol).
func (p Placement) validate() error {
	for rel, rp := range p {
		if len(rp.Shards) == 0 {
			return fmt.Errorf("netdist: relation %s placed with no shards", rel)
		}
		if rp.Sharded() && rp.KeyCol < 0 {
			return fmt.Errorf("netdist: sharded relation %s has no key column", rel)
		}
		seen := map[string]bool{}
		for si, sh := range rp.Shards {
			if sh.Leader == "" {
				return fmt.Errorf("netdist: relation %s shard %d has no leader", rel, si)
			}
			if seen[sh.Leader] {
				return fmt.Errorf("netdist: relation %s places site %s twice", rel, sh.Leader)
			}
			seen[sh.Leader] = true
		}
	}
	return nil
}
