//! The synthetic XKG-style dataset (§4.2 dataset 1).
//!
//! Structure generated:
//!
//! * a three-level class taxonomy `domain → group → leaf` recorded as
//!   `subClassOf` triples;
//! * entities with Zipf popularity; each entity gets 1–3 *leaf* types drawn
//!   from a (mostly) single group — and, as in YAGO-style KBs, the ancestor
//!   types are **materialized** (`e type leaf` implies `e type group`,
//!   `e type domain`), so relaxing a class to its parent genuinely widens
//!   the match list;
//! * relational triples `〈e₁, rel, e₂〉` whose predicates come in families;
//! * triple scores equal the subject entity's popularity (the paper's
//!   "number of inlinks into the subject");
//! * relaxations: [`HierarchyMiner`] over the taxonomy (every leaf gets ≥10
//!   rules) plus within-family predicate rules;
//! * a workload of star queries built around *witness entities* so every
//!   query is guaranteed a non-empty original result, with 2–4 triple
//!   patterns per query as in the paper's testset of 65.

use crate::spec::Dataset;
use crate::workload::Workload;
use crate::zipf::{blended_power_law_score, Zipf};
use kgstore::{KnowledgeGraphBuilder, TripleScore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relax::{HierarchyMiner, Position, RelaxationRegistry, TermRule, TypeHierarchy};
use sparql::{Query, QueryBuilder};
use specqp_common::TermId;

/// Knobs of the XKG generator. `Default` is the benchmark-scale
/// configuration; [`XkgConfig::small`] is test-scale.
#[derive(Clone, Debug)]
pub struct XkgConfig {
    /// RNG seed (all outputs are deterministic in it).
    pub seed: u64,
    /// Level-1 classes.
    pub domains: usize,
    /// Level-2 classes per domain.
    pub groups_per_domain: usize,
    /// Leaf classes per group.
    pub leaves_per_group: usize,
    /// Number of entities.
    pub entities: usize,
    /// Max leaf types per entity (min 1).
    /// (entities always get at least 2 types)
    pub max_types_per_entity: usize,
    /// Predicate families for relational triples.
    pub predicate_families: usize,
    /// Predicates per family (must be ≥ 11 so relational patterns keep ≥10
    /// relaxations).
    pub predicates_per_family: usize,
    /// Relational triples to generate.
    pub relational_triples: usize,
    /// Zipf exponent of entity popularity.
    pub popularity_exponent: f64,
    /// Scale of the top popularity score.
    pub popularity_scale: f64,
    /// Baseline fraction of the top popularity (every entity in a curated
    /// KB has some inlinks; keeps per-list normalized scores off the floor,
    /// see `zipf::blended_power_law_score`).
    pub popularity_floor: f64,
    /// Number of workload queries.
    pub queries: usize,
    /// Minimum original-result size for an admitted workload query.
    pub min_answers: usize,
    /// Hierarchy relaxation decay per tree edge.
    pub relaxation_decay: f64,
}

impl Default for XkgConfig {
    fn default() -> Self {
        XkgConfig {
            seed: 0x5eed001,
            domains: 8,
            groups_per_domain: 5,
            leaves_per_group: 8,
            entities: 40_000,
            max_types_per_entity: 4,
            predicate_families: 4,
            predicates_per_family: 12,
            relational_triples: 150_000,
            popularity_exponent: 0.9,
            popularity_scale: 100_000.0,
            popularity_floor: 0.2,
            queries: 65,
            min_answers: 2,
            relaxation_decay: 0.85,
        }
    }
}

impl XkgConfig {
    /// A small configuration for unit/integration tests (fast to build,
    /// same structure).
    pub fn small(seed: u64) -> Self {
        XkgConfig {
            seed,
            domains: 4,
            groups_per_domain: 3,
            leaves_per_group: 8,
            entities: 2_000,
            relational_triples: 6_000,
            queries: 12,
            ..Self::default()
        }
    }
}

/// Generator state and entry point.
pub struct XkgGenerator {
    config: XkgConfig,
}

impl XkgGenerator {
    /// Creates the generator.
    pub fn new(config: XkgConfig) -> Self {
        XkgGenerator { config }
    }

    /// Generates the dataset (graph + mined rules + workload).
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut b = KnowledgeGraphBuilder::new();
        b.reserve(cfg.entities * 4 + cfg.relational_triples);

        let type_pred = b.intern("rdf:type");
        let subclass_pred = b.intern("subClassOf");

        // ---- taxonomy -----------------------------------------------------
        let mut domains: Vec<TermId> = Vec::new();
        let mut groups: Vec<Vec<TermId>> = Vec::new(); // per domain
        let mut leaves: Vec<Vec<Vec<TermId>>> = Vec::new(); // [domain][group]
        for d in 0..cfg.domains {
            let dom = b.intern(&format!("dom{d}"));
            domains.push(dom);
            let mut g_row = Vec::new();
            let mut l_row = Vec::new();
            for g in 0..cfg.groups_per_domain {
                let grp = b.intern(&format!("grp{d}_{g}"));
                g_row.push(grp);
                let mut l_cell = Vec::new();
                for l in 0..cfg.leaves_per_group {
                    let leaf = b.intern(&format!("cls{d}_{g}_{l}"));
                    l_cell.push(leaf);
                }
                l_row.push(l_cell);
            }
            groups.push(g_row);
            leaves.push(l_row);
        }
        // subClassOf triples (score 1: taxonomy assertions).
        let root = b.intern("thing");
        for d in 0..cfg.domains {
            b.add_ids(domains[d], subclass_pred, root, TripleScore::new(1.0));
            for g in 0..cfg.groups_per_domain {
                b.add_ids(
                    groups[d][g],
                    subclass_pred,
                    domains[d],
                    TripleScore::new(1.0),
                );
                for leaf in &leaves[d][g] {
                    b.add_ids(*leaf, subclass_pred, groups[d][g], TripleScore::new(1.0));
                }
            }
        }

        // ---- entities and type triples ------------------------------------
        let domain_z = Zipf::new(cfg.domains, 0.7);
        let group_z = Zipf::new(cfg.groups_per_domain, 0.7);
        let leaf_z = Zipf::new(cfg.leaves_per_group, 0.8);

        let mut entities: Vec<TermId> = Vec::with_capacity(cfg.entities);
        let mut popularity: Vec<f64> = Vec::with_capacity(cfg.entities);
        // Per entity: the distinct leaf types, as (domain, group, leaf idx).
        let mut entity_types: Vec<Vec<(usize, usize, usize)>> = Vec::with_capacity(cfg.entities);

        for r in 0..cfg.entities {
            let e = b.intern(&format!("ent{r}"));
            let pop = blended_power_law_score(
                r,
                cfg.popularity_scale,
                cfg.popularity_exponent,
                cfg.popularity_floor,
            );
            entities.push(e);
            popularity.push(pop);

            let home_d = domain_z.sample(&mut rng);
            let home_g = group_z.sample(&mut rng);
            let n_types = rng.gen_range(2..=cfg.max_types_per_entity.max(2));
            let mut tys: Vec<(usize, usize, usize)> = Vec::with_capacity(n_types);
            for t in 0..n_types {
                let (d, g) = if t > 0 && rng.gen_bool(0.15) {
                    // Occasional cross-group type: creates instance overlap
                    // between unrelated classes.
                    (domain_z.sample(&mut rng), group_z.sample(&mut rng))
                } else {
                    (home_d, home_g)
                };
                let l = leaf_z.sample(&mut rng);
                if !tys.contains(&(d, g, l)) {
                    tys.push((d, g, l));
                }
            }
            for &(d, g, l) in &tys {
                // Leaf type plus materialized ancestors, all scored by the
                // subject's popularity (inlink-count semantics).
                b.add_ids(e, type_pred, leaves[d][g][l], TripleScore::new(pop));
                b.add_ids(e, type_pred, groups[d][g], TripleScore::new(pop));
                b.add_ids(e, type_pred, domains[d], TripleScore::new(pop));
            }
            entity_types.push(tys);
        }

        // ---- relational predicates and triples ----------------------------
        let mut predicates: Vec<Vec<TermId>> = Vec::new();
        for f in 0..cfg.predicate_families {
            let mut fam = Vec::new();
            for m in 0..cfg.predicates_per_family {
                fam.push(b.intern(&format!("rel{f}_{m}")));
            }
            predicates.push(fam);
        }
        let subj_z = Zipf::new(cfg.entities, 0.8);
        let obj_z = Zipf::new(cfg.entities, 1.0);
        let pred_z = Zipf::new(cfg.predicates_per_family, 0.6);
        // Record outgoing predicates per entity for query construction.
        let mut entity_out_pred: Vec<Vec<(usize, usize)>> = vec![Vec::new(); cfg.entities];
        // Edges are emitted in *bundles* of adjacent family members: real
        // KGs correlate related relations (actedIn/directed/produced), and
        // the bundles guarantee that relaxing a predicate to a family
        // neighbour keeps the join non-empty often enough for PLANGEN's
        // top-relaxation check to be informative.
        let mut emitted = 0usize;
        while emitted < cfg.relational_triples {
            let s = subj_z.sample(&mut rng);
            let f = rng.gen_range(0..cfg.predicate_families);
            let m = pred_z.sample(&mut rng);
            let spread = rng.gen_range(1..=3usize);
            for d in 0..spread {
                let mm = (m + d) % cfg.predicates_per_family;
                let o = obj_z.sample(&mut rng);
                b.add_ids(
                    entities[s],
                    predicates[f][mm],
                    entities[o],
                    TripleScore::new(popularity[s]),
                );
                emitted += 1;
                if entity_out_pred[s].len() < 4 && !entity_out_pred[s].contains(&(f, mm)) {
                    entity_out_pred[s].push((f, mm));
                }
                if emitted >= cfg.relational_triples {
                    break;
                }
            }
        }

        let graph = b.build();

        // ---- relaxation mining --------------------------------------------
        let hierarchy = TypeHierarchy::from_graph(&graph, subclass_pred);
        let mut miner = HierarchyMiner::new(type_pred);
        miner.decay = cfg.relaxation_decay;
        miner.max_distance = 4;
        miner.max_rules_per_class = 15;
        let mut registry = miner.mine(&graph, &hierarchy);
        // Predicate-family rules: rel{f}_{i} → rel{f}_{j}, weight decaying
        // in |i−j| (ring distance within the family).
        for fam in &predicates {
            for i in 0..fam.len() {
                for j in 0..fam.len() {
                    if i == j {
                        continue;
                    }
                    let d = i.abs_diff(j);
                    let w = 0.9_f64.powi(d as i32).max(0.2);
                    registry.add(TermRule::new(Position::Predicate, fam[i], fam[j], w));
                }
            }
        }

        // ---- workload ------------------------------------------------------
        let workload = self.build_workload(
            &graph,
            &registry,
            &entities,
            &entity_types,
            &entity_out_pred,
            &leaves,
            type_pred,
            &predicates,
            &mut rng,
        );

        Dataset {
            name: "xkg".into(),
            graph,
            registry,
            workload,
        }
    }

    /// Builds `cfg.queries` star queries around witness entities. Pattern
    /// counts cycle through 2, 3, 4 (the paper's testset covers all three),
    /// and every admitted query's original (un-relaxed) form has at least
    /// [`XkgConfig::min_answers`] results — the paper's queries were
    /// "manually constructed so as to have non-empty result sets".
    #[allow(clippy::too_many_arguments)]
    fn build_workload(
        &self,
        graph: &kgstore::KnowledgeGraph,
        registry: &RelaxationRegistry,
        entities: &[TermId],
        entity_types: &[Vec<(usize, usize, usize)>],
        entity_out_pred: &[Vec<(usize, usize)>],
        leaves: &[Vec<Vec<TermId>>],
        type_pred: TermId,
        predicates: &[Vec<TermId>],
        rng: &mut StdRng,
    ) -> Workload {
        use specqp_stats::CardinalityEstimator;
        let cfg = &self.config;
        let oracle = specqp_stats::ExactCardinality::new();
        let mut queries: Vec<Query> = Vec::with_capacity(cfg.queries);
        let mut attempts = 0usize;
        while queries.len() < cfg.queries && attempts < cfg.queries * 200 {
            attempts += 1;
            let want_tp = 2 + queries.len() % 3; // cycle 2,3,4
            let w = rng.gen_range(0..entities.len());
            let tys = &entity_types[w];
            let outs = &entity_out_pred[w];
            // Need enough distinct patterns: leaf types first, relational
            // patterns after.
            if tys.len() + outs.len() < want_tp {
                continue;
            }
            let mut qb = QueryBuilder::new();
            let x = qb.var("x");
            let mut n = 0usize;
            let mut ok = true;
            for &(d, g, l) in tys.iter().take(want_tp) {
                let leaf = leaves[d][g][l];
                let pat = sparql::TriplePattern::new(x, type_pred, leaf);
                if registry.relaxation_count(&pat) < 10 {
                    ok = false;
                    break;
                }
                qb.pattern(x, type_pred, leaf);
                n += 1;
            }
            if ok && n < want_tp {
                for (idx, &(f, m)) in outs.iter().enumerate() {
                    if n >= want_tp {
                        break;
                    }
                    let p = predicates[f][m];
                    let y = qb.var(&format!("y{idx}"));
                    let pat = sparql::TriplePattern::new(x, p, y);
                    if registry.relaxation_count(&pat) < 10 {
                        ok = false;
                        break;
                    }
                    qb.pattern(x, p, y);
                    n += 1;
                }
            }
            if !ok || n < want_tp {
                continue;
            }
            qb.project(x);
            let q = qb.build().expect("generated query is valid");
            debug_assert!(q.is_connected());
            // The witness guarantees ≥1 original answer; additionally demand
            // a minimum original result size so the workload is not
            // dominated by degenerate 1-answer joins.
            let n = oracle.cardinality(graph, q.patterns());
            if n < cfg.min_answers as f64 {
                continue;
            }
            queries.push(q);
        }
        assert_eq!(
            queries.len(),
            cfg.queries,
            "workload generation exhausted attempts — enlarge the dataset"
        );
        Workload::new("xkg", queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::PatternKey;

    fn small() -> Dataset {
        XkgGenerator::new(XkgConfig::small(7)).generate()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(a.registry.len(), b.registry.len());
        assert_eq!(a.workload.len(), b.workload.len());
        for (qa, qb) in a.workload.queries.iter().zip(&b.workload.queries) {
            assert_eq!(qa.patterns(), qb.patterns());
        }
    }

    #[test]
    fn workload_shape_matches_paper() {
        let d = small();
        assert_eq!(d.workload.len(), 12);
        for q in &d.workload.queries {
            assert!((2..=4).contains(&q.len()), "#TP = {}", q.len());
            assert!(q.is_connected());
            // ≥10 relaxations per pattern (paper requirement).
            for p in q.patterns() {
                assert!(
                    d.registry.relaxation_count(p) >= 10,
                    "pattern with only {} relaxations",
                    d.registry.relaxation_count(p)
                );
            }
        }
    }

    #[test]
    fn queries_have_nonempty_original_results() {
        use specqp_stats::CardinalityEstimator;
        let d = small();
        let card = specqp_stats::ExactCardinality::new();
        for q in &d.workload.queries {
            let n = card.cardinality(&d.graph, q.patterns());
            assert!(n >= 2.0, "query below min_answers");
        }
    }

    #[test]
    fn scores_have_power_head_and_moderate_sigma() {
        let d = small();
        let dict = d.graph.dictionary();
        let ty = dict.lookup("rdf:type").unwrap();
        // Pick a dense leaf: a clear popularity head must exist…
        let leaf = dict.lookup("cls0_0_0").unwrap();
        let list = d.graph.matches(PatternKey::po(ty, leaf));
        assert!(list.len() > 20, "dense leaf should have many instances");
        let median = list.score_at(list.len() / 2).value();
        assert!(
            list.max_score().value() > 3.0 * median,
            "max {} vs median {median}",
            list.max_score().value()
        );
        // …while the popularity baseline keeps the two-bucket boundary σ_r
        // in the mid-range (not degenerate near zero).
        let total = list.total_score();
        let mut cum = 0.0;
        let mut sigma = 1.0;
        for r in 0..list.len() {
            cum += list.score_at(r).value();
            if cum >= 0.8 * total {
                sigma = list.score_at(r).value() / list.max_score().value();
                break;
            }
        }
        assert!((0.05..0.95).contains(&sigma), "sigma_r = {sigma}");
    }

    #[test]
    fn ancestor_types_are_materialized() {
        let d = small();
        let dict = d.graph.dictionary();
        let ty = dict.lookup("rdf:type").unwrap();
        let leaf = dict.lookup("cls0_0_0").unwrap();
        let grp = dict.lookup("grp0_0").unwrap();
        let leaf_count = d.graph.cardinality(PatternKey::po(ty, leaf));
        let grp_count = d.graph.cardinality(PatternKey::po(ty, grp));
        assert!(grp_count >= leaf_count, "group must subsume leaf instances");
    }

    #[test]
    fn top_relaxation_is_parent_class_with_matches() {
        let d = small();
        let dict = d.graph.dictionary();
        let ty = dict.lookup("rdf:type").unwrap();
        let leaf = dict.lookup("cls0_0_0").unwrap();
        let pat = sparql::TriplePattern::new(sparql::Var(0), ty, leaf);
        let top = d.registry.top_relaxation_for(&pat).unwrap();
        // The best-weighted relaxation must itself be non-empty, otherwise
        // PLANGEN's single-relaxation check would be systematically blind.
        let (s, p, o) = top.pattern.const_parts();
        let n = d.graph.cardinality(PatternKey { s, p, o });
        assert!(n > 0, "top relaxation has no matches");
    }
}
