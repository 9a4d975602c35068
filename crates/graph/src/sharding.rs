//! Component sharding: carving the click graph into independent score blocks.
//!
//! §9.2 observes the click graph "consists of one huge connected component
//! and several smaller subgraphs". SimRank similarity (uniform *and*
//! weighted, §4/§8.2) propagates exclusively along edges, so two nodes in
//! different connected components have score exactly 0 at every iteration —
//! the only nonzero base-case entries are the diagonal `s(x,x) = 1`, and a
//! propagation step only mixes scores of nodes with a common neighbor.
//! Consequently the score matrix is block-diagonal over components, and the
//! engine can run **independently per component** and stitch the blocks back
//! together without changing a single value. That is what a [`Sharding`]
//! describes: a list of [`Shard`]s — induced subgraphs with old↔new id
//! remaps — that the engine layer (`simrankpp-core::engine::sharded`)
//! schedules across threads, largest shard first.
//!
//! Why decomposition is *exact* for SimRank, in detail:
//!
//! 1. every per-edge transition factor used by either walk is local — the
//!    uniform factor `1/N(q)` depends only on `q`'s degree, the weighted
//!    factor `spread(i)·normalized_weight(q,i)` only on the weights of edges
//!    incident to `q` and `i` — and an induced component subgraph preserves
//!    *all* edges incident to its members;
//! 2. a propagation step for pair `(a, b)` reads only pairs of neighbors of
//!    `a` and `b`, which lie in the same component;
//! 3. the remap is monotone (ids are assigned in ascending parent order), so
//!    sorted CSR neighbor lists stay in the same relative order and the
//!    shard-local iteration replays the global one contribution for
//!    contribution.
//!
//! [`Sharding::from_components`] is the whole-graph decomposition and
//! [`Sharding::from_dirty`] the incremental one; both keep every edge, so
//! every sharding is exact.

use crate::components::{connected_components, Components};
use crate::graph::ClickGraph;
use crate::ids::{AdId, NodeRef, QueryId};
use crate::subgraph::{induced_subgraph, SubgraphMapping};

/// One independent score block: an induced subgraph plus its id remap.
#[derive(Debug)]
pub struct Shard {
    /// The induced subgraph with re-densified ids.
    pub graph: ClickGraph,
    /// Parent↔shard id correspondence.
    pub mapping: SubgraphMapping,
    /// The component id this shard was carved from.
    pub component: u32,
}

impl Shard {
    /// Total node count (queries + ads) — the largest-first scheduling key.
    pub fn n_nodes(&self) -> usize {
        self.graph.n_nodes()
    }
}

/// A decomposition of one click graph into independent score blocks.
#[derive(Debug)]
pub struct Sharding {
    /// The shards, ordered largest-first (by node count) so a greedy
    /// scheduler starts the long poles early.
    pub shards: Vec<Shard>,
    /// Components that were skipped because they cannot hold an off-diagonal
    /// same-side pair (at most one query and at most one ad).
    pub n_trivial: usize,
    n_queries: usize,
    n_ads: usize,
}

impl Sharding {
    /// The exact decomposition: one shard per connected component that can
    /// hold at least one same-side pair (≥ 2 queries or ≥ 2 ads). Components
    /// with at most one node per side are skipped — they cannot contribute
    /// any off-diagonal score, so the stitched result is unaffected.
    pub fn from_components(g: &ClickGraph) -> Sharding {
        let components = connected_components(g);
        Self::from_labels(g, &components)
    }

    /// As [`Sharding::from_components`] with a precomputed labeling (the
    /// caller may already have run `connected_components`).
    pub fn from_labels(g: &ClickGraph, components: &Components) -> Sharding {
        Self::from_labels_filtered(g, components, |_| true)
    }

    /// The incremental-update decomposition: one shard per **dirty**
    /// non-trivial component of the updated graph (see
    /// [`crate::delta::GraphDelta::dirty_components`]). Clean components get
    /// no shard — the engine reuses their score blocks from the previous
    /// run — and `n_trivial` counts only trivial *dirty* components.
    pub fn from_dirty(g: &ClickGraph, dirty: &crate::delta::DirtyComponents) -> Sharding {
        Self::from_labels_filtered(g, &dirty.components, |id| dirty.is_dirty(id))
    }

    fn from_labels_filtered(
        g: &ClickGraph,
        components: &Components,
        keep: impl Fn(u32) -> bool,
    ) -> Sharding {
        let sizes = components.sizes();
        let mut shards = Vec::new();
        let mut n_trivial = 0usize;
        // Collect members per component in one pass (ascending parent id on
        // each side — the monotone order `induced_subgraph` needs to keep
        // CSR neighbor lists in the same relative order as the parent's).
        let mut members: Vec<Vec<NodeRef>> = sizes
            .iter()
            .map(|&(q, a)| Vec::with_capacity(q + a))
            .collect();
        for (i, &l) in components.query_label.iter().enumerate() {
            members[l as usize].push(NodeRef::Query(QueryId(i as u32)));
        }
        for (i, &l) in components.ad_label.iter().enumerate() {
            members[l as usize].push(NodeRef::Ad(AdId(i as u32)));
        }
        for (id, nodes) in members.into_iter().enumerate() {
            if !keep(id as u32) {
                continue;
            }
            let (q, a) = sizes[id];
            if q < 2 && a < 2 {
                n_trivial += 1;
                continue;
            }
            let (graph, mapping) = induced_subgraph(g, &nodes);
            shards.push(Shard {
                graph,
                mapping,
                component: id as u32,
            });
        }
        shards.sort_by_key(|s| std::cmp::Reverse(s.n_nodes()));
        Sharding {
            shards,
            n_trivial,
            n_queries: g.n_queries(),
            n_ads: g.n_ads(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Query count of the parent graph (the stitched matrix dimension).
    pub fn parent_n_queries(&self) -> usize {
        self.n_queries
    }

    /// Ad count of the parent graph.
    pub fn parent_n_ads(&self) -> usize {
        self.n_ads
    }

    /// Checks that no parent node appears in two shards (the precondition
    /// for the engine's duplicate-rejecting stitch). O(nodes).
    pub fn validate_disjoint(&self) -> Result<(), String> {
        let mut q_seen = vec![false; self.n_queries];
        let mut a_seen = vec![false; self.n_ads];
        for (i, shard) in self.shards.iter().enumerate() {
            for &pq in &shard.mapping.queries {
                if pq.index() >= self.n_queries {
                    return Err(format!("shard {i}: query {pq} out of parent range"));
                }
                if std::mem::replace(&mut q_seen[pq.index()], true) {
                    return Err(format!("query {pq} appears in two shards"));
                }
            }
            for &pa in &shard.mapping.ads {
                if pa.index() >= self.n_ads {
                    return Err(format!("shard {i}: ad {pa} out of parent range"));
                }
                if std::mem::replace(&mut a_seen[pa.index()], true) {
                    return Err(format!("ad {pa} appears in two shards"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClickGraphBuilder;
    use crate::edge::EdgeData;
    use crate::fixtures::figure3_graph;

    #[test]
    fn figure3_sharding_splits_the_two_components() {
        let g = figure3_graph();
        let s = Sharding::from_components(&g);
        assert_eq!(s.n_shards(), 2);
        assert_eq!(s.n_trivial, 0);
        // Largest-first: {pc, camera, digital camera, tv} × {hp, bestbuy}.
        assert_eq!(s.shards[0].graph.n_queries(), 4);
        assert_eq!(s.shards[0].graph.n_ads(), 2);
        assert_eq!(s.shards[1].graph.n_queries(), 1);
        assert_eq!(s.shards[1].graph.n_ads(), 2);
        s.validate_disjoint().unwrap();
    }

    #[test]
    fn from_dirty_shards_only_dirty_components() {
        use crate::delta::GraphDelta;
        // Touch only the big component: the flower component stays clean and
        // gets no shard.
        let g = figure3_graph();
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(1),
        );
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        let s = Sharding::from_dirty(&g2, &dirty);
        assert_eq!(s.n_shards(), 1);
        assert_eq!(s.n_trivial, 0);
        assert_eq!(s.shards[0].graph.n_queries(), 4);
        s.validate_disjoint().unwrap();
        // An empty delta shards nothing.
        let none = GraphDelta::new();
        let clean = none.dirty_components(&g2);
        assert_eq!(Sharding::from_dirty(&g2, &clean).n_shards(), 0);
    }

    #[test]
    fn remap_round_trips_shard_local_to_global_and_back() {
        let g = figure3_graph();
        let s = Sharding::from_components(&g);
        for shard in &s.shards {
            for q in shard.graph.queries() {
                let parent = shard.mapping.to_parent_query(q);
                assert_eq!(shard.mapping.to_sub_query(parent), Some(q));
                // Names travel with the remap.
                assert_eq!(shard.graph.query_name(q), g.query_name(parent));
            }
            for a in shard.graph.ads() {
                let parent = shard.mapping.to_parent_ad(a);
                assert_eq!(shard.mapping.to_sub_ad(parent), Some(a));
            }
        }
    }

    #[test]
    fn remap_is_monotone_per_shard() {
        // Monotone remaps preserve sorted CSR order — the property the
        // bit-exactness of sharded propagation rests on.
        let g = figure3_graph();
        let s = Sharding::from_components(&g);
        for shard in &s.shards {
            assert!(shard.mapping.queries.windows(2).all(|w| w[0] < w[1]));
            assert!(shard.mapping.ads.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn trivial_components_are_skipped() {
        // q0-a0 pair component plus isolated q1, q2, a1: the isolated nodes
        // are trivial, and the 1×1 edge component holds no same-side pair.
        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(3);
        b.reserve_ads(2);
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        let g = b.build();
        let s = Sharding::from_components(&g);
        assert_eq!(s.n_shards(), 0);
        assert_eq!(s.n_trivial, 4);
        assert_eq!(s.parent_n_queries(), 3);
        assert_eq!(s.parent_n_ads(), 2);
    }

    #[test]
    fn singleton_query_with_ad_pair_is_kept() {
        // One query clicking two ads: no query pair, but an ad pair exists,
        // so the component must become a shard.
        let mut b = ClickGraphBuilder::new();
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        b.add_edge(QueryId(0), AdId(1), EdgeData::from_clicks(1));
        let g = b.build();
        let s = Sharding::from_components(&g);
        assert_eq!(s.n_shards(), 1);
        assert_eq!(s.shards[0].graph.n_ads(), 2);
    }

    #[test]
    fn empty_graph_has_no_shards() {
        let g = ClickGraphBuilder::new().build();
        let s = Sharding::from_components(&g);
        assert_eq!(s.n_shards(), 0);
        assert_eq!(s.n_trivial, 0);
        s.validate_disjoint().unwrap();
    }

    #[test]
    fn validate_disjoint_catches_overlap() {
        let g = figure3_graph();
        let mut s = Sharding::from_components(&g);
        // Duplicate the first shard: every node now appears twice.
        let dup = Shard {
            graph: s.shards[0].graph.clone(),
            mapping: s.shards[0].mapping.clone(),
            component: s.shards[0].component,
        };
        s.shards.push(dup);
        assert!(s.validate_disjoint().is_err());
    }

    #[test]
    fn shard_edges_match_parent_component_edges() {
        let g = figure3_graph();
        let s = Sharding::from_components(&g);
        let total_edges: usize = s.shards.iter().map(|sh| sh.graph.n_edges()).sum();
        assert_eq!(total_edges, g.n_edges(), "component shards keep all edges");
        for shard in &s.shards {
            for (q, a, e) in shard.graph.edges() {
                let pq = shard.mapping.to_parent_query(q);
                let pa = shard.mapping.to_parent_ad(a);
                assert_eq!(g.edge(pq, pa), Some(e));
            }
        }
    }
}
