package broker

import (
	"github.com/globalmmcs/globalmmcs/internal/topic"
)

// Routed forwarding (ModeClientServer): instead of staging a publish on
// every peer link that advertised a matching pattern (the flood, where
// TTL and the duplicate cache kill the redundant copies at the far
// side), the broker maintains, per advertised (pattern, origin-broker),
// the single cheapest next-hop link — costs come from the hop counts
// carried on advertisements — and forwards one copy per chosen link,
// tagged with a serve-mask naming the origins that copy is responsible
// for. Receivers re-forward only the mask bits assigned to their own
// chosen links, so dissemination follows one spanning tree per origin
// even across equal-cost paths (where purely local cheapest-link pruning
// would still emit crossing duplicates). TTL and dedup remain as the
// safety net for convergence windows. ModePeerToPeer keeps the flood:
// every advertiser stays in the routing trie and no plan is published.

// originBit hashes an origin broker id onto one bit of the 64-bit
// serve-mask (FNV-1a). Collisions merely over-serve: two origins sharing
// a bit are forwarded wherever either is routed, and the receiving
// broker's own routing narrows the copy again.
func originBit(origin string) uint64 {
	h := uint32(2166136261)
	for i := 0; i < len(origin); i++ {
		h ^= uint32(origin[i])
		h *= 16777619
	}
	return 1 << (h & 63)
}

// originRoute is the chosen next hop toward one origin broker.
type originRoute struct {
	next *session
	cost int
}

// patternRoute is the control-plane routing entry for one advertised
// pattern: origin broker id → chosen next hop. Guarded by b.mu.
type patternRoute struct {
	origins map[string]originRoute
}

// linkAssign is one peer link's origin assignment within a plan: the
// union of serve-mask bits of every origin routed through it.
type linkAssign struct {
	t    *session
	mask uint64
}

// topicPlan is the data-plane forwarding plan resolved for one concrete
// topic: which peer links to stage on, and which origins each serves.
type topicPlan struct {
	links []linkAssign
}

// maskFor returns the origin bits assigned to link t, 0 when t is not a
// chosen next hop for this topic.
func (p *topicPlan) maskFor(t *session) uint64 {
	for i := range p.links {
		if p.links[i].t == t {
			return p.links[i].mask
		}
	}
	return 0
}

// merge ORs another pattern's link assignments into p (topics matching
// several patterns serve the union).
func (p *topicPlan) merge(links []linkAssign) {
	for _, la := range links {
		found := false
		for i := range p.links {
			if p.links[i].t == la.t {
				p.links[i].mask |= la.mask
				found = true
				break
			}
		}
		if !found {
			p.links = append(p.links, la)
		}
	}
}

// meshPatternPlan is one pattern's pre-built plan in the published table.
type meshPatternPlan struct {
	pattern string
	plan    topicPlan
}

// meshPlanTable is the immutable data-plane snapshot of the routing
// table, swapped atomically on every control-plane recompute so the hot
// path reads it without b.mu.
type meshPlanTable struct {
	entries []meshPatternPlan
}

// planFor resolves the forwarding plan for a concrete topic, nil when the
// table is nil or no advertised pattern matches (callers then fall back
// to unmasked forwarding along whatever the trie holds — the behaviour
// hand-wired tests and convergence gaps rely on).
func (tbl *meshPlanTable) planFor(t string) *topicPlan {
	if tbl == nil {
		return nil
	}
	var single *topicPlan
	var merged *topicPlan
	for i := range tbl.entries {
		ent := &tbl.entries[i]
		if !topic.MatchPattern(ent.pattern, t) {
			continue
		}
		switch {
		case single == nil:
			single = &ent.plan
		case merged == nil:
			merged = &topicPlan{links: append([]linkAssign(nil), single.links...)}
			merged.merge(ent.plan.links)
		default:
			merged.merge(ent.plan.links)
		}
	}
	if merged != nil {
		return merged
	}
	return single
}

// routeCostLocked returns this broker's current cost to origin under
// pattern (via the chosen link). Callers hold b.mu.
func (b *Broker) routeCostLocked(pattern, origin string) (int, bool) {
	pr := b.meshRoutes[pattern]
	if pr == nil {
		return 0, false
	}
	r, ok := pr.origins[origin]
	return r.cost, ok
}

// recomputePatternRouteLocked rebuilds the chosen next-hop set for one
// pattern from the per-link advertisement costs, syncs the routing trie
// to it (routed mode admits only chosen next hops; flood mode every
// advertiser), and republishes the data-plane plan table. Promotion is
// purely local: every link's cost is retained in session.remotePatterns,
// so losing the chosen link immediately elects the next-best without a
// network round trip. Callers hold b.mu.
func (b *Broker) recomputePatternRouteLocked(pattern string) {
	best := make(map[string]originRoute)
	var advertisers []*session
	for p := range b.peers {
		origins := p.remotePatterns[pattern]
		if len(origins) == 0 {
			continue
		}
		advertisers = append(advertisers, p)
		for origin, ent := range origins {
			cost := ent.hops + 1
			cur, ok := best[origin]
			if !ok || cost < cur.cost || (cost == cur.cost && p.id < cur.next.id) {
				best[origin] = originRoute{next: p, cost: cost}
			}
		}
	}
	if len(best) == 0 {
		delete(b.meshRoutes, pattern)
	} else {
		b.meshRoutes[pattern] = &patternRoute{origins: best}
	}
	want := make(map[*session]bool, len(advertisers))
	if b.routed {
		for _, r := range best {
			want[r.next] = true
		}
	} else {
		for _, p := range advertisers {
			want[p] = true
		}
	}
	for p := range b.peers {
		_, has := p.routedPatterns[pattern]
		switch {
		case want[p] && !has:
			if b.subs.Add(pattern, p) == nil {
				p.routedPatterns[pattern] = struct{}{}
			}
		case !want[p] && has:
			b.subs.Remove(pattern, p)
			delete(p.routedPatterns, pattern)
		}
	}
	b.publishMeshPlansLocked()
}

// publishMeshPlansLocked rebuilds the immutable plan table from
// meshRoutes and swaps it in for the data plane. Callers hold b.mu.
func (b *Broker) publishMeshPlansLocked() {
	if !b.routed || len(b.meshRoutes) == 0 {
		b.meshPlans.Store(nil)
		return
	}
	tbl := &meshPlanTable{entries: make([]meshPatternPlan, 0, len(b.meshRoutes))}
	for pattern, pr := range b.meshRoutes {
		links := make(map[*session]uint64, 2)
		for origin, r := range pr.origins {
			links[r.next] |= originBit(origin)
		}
		mp := meshPatternPlan{pattern: pattern}
		for s, m := range links {
			mp.plan.links = append(mp.plan.links, linkAssign{t: s, mask: m})
		}
		tbl.entries = append(tbl.entries, mp)
	}
	b.meshPlans.Store(tbl)
}
