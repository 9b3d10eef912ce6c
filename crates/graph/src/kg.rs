//! The indexed knowledge-graph container.

use crate::error::GraphError;
use crate::ids::{EntityId, RelationId};
use crate::interner::Interner;
use crate::triple::Triple;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A knowledge graph `G = (E, R, T)` (paper §III) with per-entity edge
/// indexes for fast neighbourhood queries.
///
/// Entities and relations are interned to dense ids, so `EntityId::index()`
/// addresses rows of any matrix whose rows are this graph's entities.
///
/// ```
/// use ceaff_graph::KnowledgeGraph;
///
/// let mut kg = KnowledgeGraph::new();
/// kg.add_fact("Paris", "capital_of", "France");
/// kg.add_fact("Lyon", "located_in", "France");
/// let france = kg.entity_id("France").unwrap();
/// assert_eq!(kg.num_triples(), 2);
/// assert_eq!(kg.in_degree(france), 2);
/// assert_eq!(kg.neighbors(france).len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeGraph {
    entities: Interner,
    relations: Interner,
    triples: Vec<Triple>,
    /// `out_edges[e]` = indices into `triples` where `e` is the head.
    out_edges: Vec<Vec<u32>>,
    /// `in_edges[e]` = indices into `triples` where `e` is the tail.
    in_edges: Vec<Vec<u32>>,
}

impl KnowledgeGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an entity name, returning its id.
    pub fn add_entity(&mut self, name: &str) -> EntityId {
        let id = self.entities.intern(name);
        while self.out_edges.len() <= id as usize {
            self.out_edges.push(Vec::new());
            self.in_edges.push(Vec::new());
        }
        EntityId::new(id)
    }

    /// Intern a relation name, returning its id.
    pub fn add_relation(&mut self, name: &str) -> RelationId {
        RelationId::new(self.relations.intern(name))
    }

    /// Add a triple between already-interned entities.
    ///
    /// Returns an error if any referenced id is unknown.
    pub fn add_triple(&mut self, triple: Triple) -> Result<(), GraphError> {
        if triple.head.index() >= self.num_entities() {
            return Err(GraphError::UnknownEntity(triple.head.0));
        }
        if triple.tail.index() >= self.num_entities() {
            return Err(GraphError::UnknownEntity(triple.tail.0));
        }
        if triple.relation.index() >= self.num_relations() {
            return Err(GraphError::UnknownRelation(triple.relation.0));
        }
        let idx = u32::try_from(self.triples.len()).expect("more than u32::MAX triples");
        self.out_edges[triple.head.index()].push(idx);
        self.in_edges[triple.tail.index()].push(idx);
        self.triples.push(triple);
        Ok(())
    }

    /// Convenience: intern names and add the fact in one call.
    pub fn add_fact(&mut self, head: &str, relation: &str, tail: &str) -> Triple {
        let h = self.add_entity(head);
        let r = self.add_relation(relation);
        let t = self.add_entity(tail);
        let triple = Triple::new(h, r, t);
        self.add_triple(triple)
            .expect("ids freshly interned, cannot be unknown");
        triple
    }

    /// Number of entities `|E|`.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of relations `|R|`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Number of triples `|T|`.
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// All triples in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The entity interner.
    pub fn entities(&self) -> &Interner {
        &self.entities
    }

    /// The relation interner.
    pub fn relations(&self) -> &Interner {
        &self.relations
    }

    /// Name of an entity.
    pub fn entity_name(&self, e: EntityId) -> Option<&str> {
        self.entities.resolve(e.0)
    }

    /// Name of a relation.
    pub fn relation_name(&self, r: RelationId) -> Option<&str> {
        self.relations.resolve(r.0)
    }

    /// Id of an entity by name.
    pub fn entity_id(&self, name: &str) -> Option<EntityId> {
        self.entities.get(name).map(EntityId::new)
    }

    /// Triples where `e` is the head.
    pub fn outgoing(&self, e: EntityId) -> impl Iterator<Item = &Triple> {
        self.out_edges
            .get(e.index())
            .into_iter()
            .flatten()
            .map(move |&i| &self.triples[i as usize])
    }

    /// Triples where `e` is the tail.
    pub fn incoming(&self, e: EntityId) -> impl Iterator<Item = &Triple> {
        self.in_edges
            .get(e.index())
            .into_iter()
            .flatten()
            .map(move |&i| &self.triples[i as usize])
    }

    /// Out-degree of `e` (number of triples with `e` as head).
    pub fn out_degree(&self, e: EntityId) -> usize {
        self.out_edges.get(e.index()).map_or(0, Vec::len)
    }

    /// In-degree of `e`.
    pub fn in_degree(&self, e: EntityId) -> usize {
        self.in_edges.get(e.index()).map_or(0, Vec::len)
    }

    /// Total degree of `e`.
    pub fn degree(&self, e: EntityId) -> usize {
        self.out_degree(e) + self.in_degree(e)
    }

    /// Distinct undirected neighbours of `e` (excluding `e` itself).
    pub fn neighbors(&self, e: EntityId) -> Vec<EntityId> {
        let mut seen = HashSet::new();
        for t in self.outgoing(e) {
            if t.tail != e {
                seen.insert(t.tail);
            }
        }
        for t in self.incoming(e) {
            if t.head != e {
                seen.insert(t.head);
            }
        }
        let mut v: Vec<_> = seen.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Iterate over all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.num_entities() as u32).map(EntityId::new)
    }

    /// Iterate over all relation ids.
    pub fn relation_ids(&self) -> impl Iterator<Item = RelationId> {
        (0..self.num_relations() as u32).map(RelationId::new)
    }

    /// Insert a fresh entity at id `pos`, shifting every entity id `>= pos`
    /// up by one (triples included). Used by the delta machinery so that a
    /// removal can be inverted back to the original id layout.
    ///
    /// # Panics
    /// Panics if the name is already interned or `pos > num_entities()` —
    /// delta validation rejects such operations before mutating.
    pub(crate) fn insert_entity_at(&mut self, pos: usize, name: &str) {
        self.entities.insert_at(pos, name);
        self.out_edges.insert(pos, Vec::new());
        self.in_edges.insert(pos, Vec::new());
        for t in &mut self.triples {
            if t.head.index() >= pos {
                t.head = EntityId::new(t.head.0 + 1);
            }
            if t.tail.index() >= pos {
                t.tail = EntityId::new(t.tail.0 + 1);
            }
        }
    }

    /// Remove the entity at id `pos`, shifting every entity id `> pos` down
    /// by one. Returns the removed name.
    ///
    /// # Panics
    /// Panics if `pos` is out of range or the entity still participates in
    /// a triple — the caller must validate first.
    pub(crate) fn remove_entity_at(&mut self, pos: usize) -> String {
        assert!(
            self.out_edges[pos].is_empty() && self.in_edges[pos].is_empty(),
            "remove_entity_at: entity still referenced by triples"
        );
        let name = self.entities.remove_at(pos);
        self.out_edges.remove(pos);
        self.in_edges.remove(pos);
        for t in &mut self.triples {
            if t.head.index() > pos {
                t.head = EntityId::new(t.head.0 - 1);
            }
            if t.tail.index() > pos {
                t.tail = EntityId::new(t.tail.0 - 1);
            }
        }
        name
    }

    /// Insert a fresh relation at id `pos`, shifting every relation id
    /// `>= pos` up by one (triples included).
    pub(crate) fn insert_relation_at(&mut self, pos: usize, name: &str) {
        self.relations.insert_at(pos, name);
        for t in &mut self.triples {
            if t.relation.index() >= pos {
                t.relation = RelationId::new(t.relation.0 + 1);
            }
        }
    }

    /// Remove the relation at id `pos`, shifting every relation id `> pos`
    /// down by one. Returns the removed name.
    ///
    /// # Panics
    /// Panics if any triple still uses the relation — validate first.
    pub(crate) fn remove_relation_at(&mut self, pos: usize) -> String {
        assert!(
            !self.triples.iter().any(|t| t.relation.index() == pos),
            "remove_relation_at: relation still referenced by triples"
        );
        let name = self.relations.remove_at(pos);
        for t in &mut self.triples {
            if t.relation.index() > pos {
                t.relation = RelationId::new(t.relation.0 - 1);
            }
        }
        name
    }

    /// Insert `triple` at position `pos` in the triple list, renumbering
    /// the per-entity edge indexes so the layout is identical to having
    /// built the final triple list with [`KnowledgeGraph::add_triple`]
    /// from scratch (edge lists stay sorted ascending).
    pub(crate) fn insert_triple_at(&mut self, pos: usize, triple: Triple) {
        assert!(pos <= self.triples.len(), "insert_triple_at: out of range");
        assert!(
            triple.head.index() < self.num_entities()
                && triple.tail.index() < self.num_entities()
                && triple.relation.index() < self.num_relations(),
            "insert_triple_at: unknown id"
        );
        for list in self.out_edges.iter_mut().chain(self.in_edges.iter_mut()) {
            for idx in list.iter_mut() {
                if *idx as usize >= pos {
                    *idx += 1;
                }
            }
        }
        let p = pos as u32;
        let out = &mut self.out_edges[triple.head.index()];
        let at = out.partition_point(|&i| i < p);
        out.insert(at, p);
        let inn = &mut self.in_edges[triple.tail.index()];
        let at = inn.partition_point(|&i| i < p);
        inn.insert(at, p);
        self.triples.insert(pos, triple);
    }

    /// Remove the triple at position `pos`, renumbering edge indexes.
    /// Returns the removed triple.
    pub(crate) fn remove_triple_at(&mut self, pos: usize) -> Triple {
        assert!(pos < self.triples.len(), "remove_triple_at: out of range");
        let triple = self.triples.remove(pos);
        let p = pos as u32;
        self.out_edges[triple.head.index()].retain(|&i| i != p);
        self.in_edges[triple.tail.index()].retain(|&i| i != p);
        for list in self.out_edges.iter_mut().chain(self.in_edges.iter_mut()) {
            for idx in list.iter_mut() {
                if *idx > p {
                    *idx -= 1;
                }
            }
        }
        triple
    }

    /// Relation *functionality* statistics used by the GCN-Align adjacency
    /// (Wang et al., EMNLP 2018, the paper's \[25\]):
    /// `fun(r) = #distinct heads of r / #triples of r` and
    /// `ifun(r) = #distinct tails of r / #triples of r`.
    ///
    /// Returns `(fun, ifun)` vectors indexed by relation id; relations with
    /// no triples get `(1.0, 1.0)`.
    pub fn relation_functionality(&self) -> (Vec<f32>, Vec<f32>) {
        let nr = self.num_relations();
        let mut heads: Vec<HashSet<EntityId>> = vec![HashSet::new(); nr];
        let mut tails: Vec<HashSet<EntityId>> = vec![HashSet::new(); nr];
        let mut counts = vec![0usize; nr];
        for t in &self.triples {
            let r = t.relation.index();
            heads[r].insert(t.head);
            tails[r].insert(t.tail);
            counts[r] += 1;
        }
        let fun = (0..nr)
            .map(|r| {
                if counts[r] == 0 {
                    1.0
                } else {
                    heads[r].len() as f32 / counts[r] as f32
                }
            })
            .collect();
        let ifun = (0..nr)
            .map(|r| {
                if counts[r] == 0 {
                    1.0
                } else {
                    tails[r].len() as f32 / counts[r] as f32
                }
            })
            .collect();
        (fun, ifun)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::t;

    fn toy() -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        g.add_fact("a", "r1", "b");
        g.add_fact("b", "r1", "c");
        g.add_fact("a", "r2", "c");
        g
    }

    #[test]
    fn counts() {
        let g = toy();
        assert_eq!(g.num_entities(), 3);
        assert_eq!(g.num_relations(), 2);
        assert_eq!(g.num_triples(), 3);
    }

    #[test]
    fn name_resolution_roundtrip() {
        let g = toy();
        let a = g.entity_id("a").unwrap();
        assert_eq!(g.entity_name(a), Some("a"));
        assert_eq!(g.entity_id("missing"), None);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = toy();
        let a = g.entity_id("a").unwrap();
        let b = g.entity_id("b").unwrap();
        let c = g.entity_id("c").unwrap();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.neighbors(a), vec![b, c]);
        assert_eq!(g.neighbors(c), vec![a, b]);
    }

    #[test]
    fn outgoing_incoming_iterators() {
        let g = toy();
        let a = g.entity_id("a").unwrap();
        assert_eq!(g.outgoing(a).count(), 2);
        assert_eq!(g.incoming(a).count(), 0);
        let c = g.entity_id("c").unwrap();
        assert_eq!(g.incoming(c).count(), 2);
    }

    #[test]
    fn add_triple_rejects_unknown_ids() {
        let mut g = toy();
        assert!(matches!(
            g.add_triple(t(99, 0, 0)),
            Err(GraphError::UnknownEntity(99))
        ));
        assert!(matches!(
            g.add_triple(t(0, 99, 0)),
            Err(GraphError::UnknownRelation(99))
        ));
    }

    #[test]
    fn functionality_statistics() {
        // r1: triples (a,b), (b,c) -> 2 distinct heads, 2 distinct tails, 2 triples
        // r2: triple (a,c) -> 1/1
        let g = toy();
        let (fun, ifun) = g.relation_functionality();
        assert_eq!(fun, vec![1.0, 1.0]);
        assert_eq!(ifun, vec![1.0, 1.0]);

        // A relation where one head points to many tails has low ifun? No:
        // fun = distinct heads / triples (low when one head repeats).
        let mut g = KnowledgeGraph::new();
        g.add_fact("h", "r", "t1");
        g.add_fact("h", "r", "t2");
        g.add_fact("h", "r", "t3");
        let (fun, ifun) = g.relation_functionality();
        assert!((fun[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((ifun[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn self_loops_do_not_appear_in_neighbors() {
        let mut g = KnowledgeGraph::new();
        g.add_fact("a", "r", "a");
        let a = g.entity_id("a").unwrap();
        assert!(g.neighbors(a).is_empty());
        assert_eq!(g.degree(a), 2); // counted once as out, once as in
    }
}
