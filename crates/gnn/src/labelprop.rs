//! Label propagation (paper Eq. 1, after Zhou et al. 2003).
//!
//! `F_n = D^{-1/2} A D^{-1/2} F_{n-1}` starting from a one-hot matrix
//! of labelled event nodes, iterated `layers` times; predictions are
//! the softmax/argmax of non-zero rows. Two propagation layers measure
//! *direct* resource reuse (`e_i → IOC → e_j`); deeper propagation can
//! exploit secondary IOCs (`e_i → IP → domain → e_j`) and, at four
//! layers, ASN co-location (`e_i → IP → ASN → IP → e_j`).

use trail_graph::{Csr, NodeId};

use crate::sage::LayerRows;

/// `1/√deg`, or 0 for an isolate.
fn inv_sqrt_degree(csr: &Csr, v: NodeId) -> f32 {
    let d = csr.degree(v);
    if d == 0 {
        0.0
    } else {
        1.0 / (d as f32).sqrt()
    }
}

/// Label-propagation runner over a frozen CSR graph.
pub struct LabelPropagation<'g> {
    csr: &'g Csr,
    n_classes: usize,
}

impl<'g> LabelPropagation<'g> {
    /// Prepare for a graph and class count.
    pub fn new(csr: &'g Csr, n_classes: usize) -> Self {
        Self { csr, n_classes }
    }

    /// Run `layers` propagation iterations from the seed labels.
    ///
    /// `seeds[i] = Some(class)` for labelled nodes. Returns the raw
    /// score matrix flattened row-major (`n x n_classes`).
    pub fn propagate(&self, seeds: &[Option<u16>], layers: usize) -> Vec<f32> {
        self.propagate_with_threads(seeds, layers, trail_linalg::pool::num_threads())
    }

    /// [`Self::propagate`] pinned to at most `threads` pool
    /// participants (1 ⇒ sequential reference).
    pub fn propagate_with_threads(
        &self,
        seeds: &[Option<u16>],
        layers: usize,
        threads: usize,
    ) -> Vec<f32> {
        self.propagate_rows(seeds, layers, None, threads)
    }

    /// The propagation over every node (`rows` is `None`) or over the
    /// rows a prediction reads: the `layers + 1` sets of
    /// [`LayerRows`], where set 0 holds the seed rows and iteration `i`
    /// computes set `i + 1`, the nodes within `layers − 1 − i` hops of
    /// the targets. Returns one score row per row of the last set.
    ///
    /// Each sweep is a gather by destination row — `next[u] =
    /// Σ_{v∈N(u)} w(u,v)·f[v]`, the same sum the scatter formulation
    /// produces over the symmetric CSR — so every output row is
    /// written by exactly one thread and the scores are bitwise
    /// identical for every thread count. A row's sum reads only its
    /// neighbours' rows, in CSR order, so a row computed over a row
    /// set is bitwise the full propagation's.
    fn propagate_rows(
        &self,
        seeds: &[Option<u16>],
        layers: usize,
        rows: Option<&LayerRows>,
        threads: usize,
    ) -> Vec<f32> {
        let _span = trail_obs::span("gnn.labelprop");
        let n = self.csr.node_count();
        assert_eq!(seeds.len(), n);
        let k = self.n_classes;
        // Set `l`: its length, the node of row `r`, the row of node `v`.
        let len = |l: usize| rows.map_or(n, |t| t.nodes[l].len());
        let node = |l: usize, r: usize| rows.map_or(NodeId::from(r), |t| NodeId(t.nodes[l][r]));
        let row = |l: usize, v: NodeId| rows.map_or(v.index(), |t| t.pos[l][v.index()] as usize);
        let mut f = vec![0.0f32; len(0) * k];
        for r in 0..len(0) {
            if let Some(c) = seeds[node(0, r).index()] {
                f[r * k + c as usize] = 1.0;
            }
        }
        if f.is_empty() {
            return f;
        }
        let mut next = Vec::new();
        let mut inv_sqrt_deg: Vec<f32> = (0..len(0))
            .map(|r| inv_sqrt_degree(self.csr, node(0, r)))
            .collect();
        // Rows whose score row is still all-zero contribute nothing;
        // the mask keeps the sparse early iterations cheap (labels
        // take `layers` hops to cover the graph).
        let mut live = Vec::new();
        for i in 0..layers {
            if let Some(t) = rows.filter(|_| i > 0) {
                // Set `i`'s factors, gathered from set `i − 1`'s.
                inv_sqrt_deg = t.gather[i].iter().map(|&p| inv_sqrt_deg[p]).collect();
            }
            live.clear();
            live.extend((0..len(i)).map(|r| {
                inv_sqrt_deg[r] != 0.0 && f[r * k..(r + 1) * k].iter().any(|&x| x != 0.0)
            }));
            // A row's neighbours lie within set `i`; one outside it
            // finds no row and panics on the bounds instead of reading
            // a stale one.
            next.clear();
            next.resize(len(i + 1) * k, 0.0);
            let csr = self.csr;
            let (f_ref, live_ref, inv_ref) = (&f, &live, &inv_sqrt_deg);
            trail_linalg::pool::parallel_for_rows_limit(threads, &mut next, k, 16, |row0, band| {
                for (j, dst) in band.chunks_exact_mut(k).enumerate() {
                    let u = node(i + 1, row0 + j);
                    dst.fill(0.0);
                    let du = inv_ref[row(i, u)];
                    if du == 0.0 {
                        continue;
                    }
                    for &v in csr.neighbors(u) {
                        let p = row(i, v);
                        if !live_ref[p] {
                            continue;
                        }
                        let w = du * inv_ref[p];
                        let src = &f_ref[p * k..(p + 1) * k];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += w * s;
                        }
                    }
                }
            });
            std::mem::swap(&mut f, &mut next);
        }
        f
    }

    /// Score rows of `targets` after `layers` iterations, computing
    /// only the rows they read: iteration `i` runs on the nodes within
    /// `layers − 1 − i` hops of the targets.
    fn target_scores<'a>(
        &self,
        seeds: &[Option<u16>],
        layers: usize,
        targets: &'a [NodeId],
    ) -> impl Iterator<Item = Vec<f32>> + 'a {
        let rows = LayerRows::new(self.csr, targets, layers + 1);
        let threads = trail_linalg::pool::num_threads();
        let scores = self.propagate_rows(seeds, layers, Some(&rows), threads);
        let k = self.n_classes;
        targets.iter().map(move |&t| {
            let r = rows.root_row(t);
            scores[r * k..(r + 1) * k].to_vec()
        })
    }

    /// Predict classes for `targets` after `layers` iterations; nodes
    /// whose score row is all-zero (unreachable from any seed) yield
    /// `None` — the paper's "remain unattributed" case.
    pub fn predict(
        &self,
        seeds: &[Option<u16>],
        layers: usize,
        targets: &[NodeId],
    ) -> Vec<Option<u16>> {
        self.target_scores(seeds, layers, targets)
            .map(|row| {
                if row.iter().all(|&x| x <= 0.0) {
                    None
                } else {
                    trail_linalg::vector::argmax(&row).map(|c| c as u16)
                }
            })
            .collect()
    }

    /// Softmax probability rows for `targets` (uniform for unreachable
    /// nodes — maximum-entropy "don't know").
    pub fn predict_proba(
        &self,
        seeds: &[Option<u16>],
        layers: usize,
        targets: &[NodeId],
    ) -> Vec<Vec<f32>> {
        let k = self.n_classes;
        self.target_scores(seeds, layers, targets)
            .map(|row| {
                if row.iter().all(|&x| x <= 0.0) {
                    vec![1.0 / k as f32; k]
                } else {
                    // Normalise mass directly — softmax of raw counts
                    // over-flattens when scores are tiny.
                    let total: f32 = row.iter().sum();
                    row.iter().map(|&x| x / total).collect()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_graph::{EdgeKind, GraphStore, NodeKind};

    /// e0(label 0) - ip0 - e1(?) ; e2(label 1) isolated cluster with e3.
    fn graph() -> (GraphStore, Vec<NodeId>) {
        let mut g = GraphStore::new();
        let e0 = g.upsert_node(NodeKind::Event, "e0");
        let ip0 = g.upsert_node(NodeKind::Ip, "1.1.1.1");
        let e1 = g.upsert_node(NodeKind::Event, "e1");
        g.add_edge(e0, ip0, EdgeKind::InReport).unwrap();
        g.add_edge(e1, ip0, EdgeKind::InReport).unwrap();
        let e2 = g.upsert_node(NodeKind::Event, "e2");
        let d = g.upsert_node(NodeKind::Domain, "x.example");
        let e3 = g.upsert_node(NodeKind::Event, "e3");
        g.add_edge(e2, d, EdgeKind::InReport).unwrap();
        g.add_edge(e3, d, EdgeKind::InReport).unwrap();
        (g, vec![e0, ip0, e1, e2, e3])
    }

    #[test]
    fn two_layer_propagation_attributes_shared_ioc() {
        let (g, n) = graph();
        let csr = Csr::from_store(&g);
        let lp = LabelPropagation::new(&csr, 2);
        let mut seeds = vec![None; g.node_count()];
        seeds[n[0].index()] = Some(0); // e0 -> class 0
        seeds[n[3].index()] = Some(1); // e2 -> class 1
        let pred = lp.predict(&seeds, 2, &[n[2], n[4]]);
        assert_eq!(pred, vec![Some(0), Some(1)]);
    }

    #[test]
    fn unreachable_node_is_unattributed() {
        let (mut g, n) = graph();
        let lonely = g.upsert_node(NodeKind::Event, "lonely");
        let csr = Csr::from_store(&g);
        let lp = LabelPropagation::new(&csr, 2);
        let mut seeds = vec![None; g.node_count()];
        seeds[n[0].index()] = Some(0);
        let pred = lp.predict(&seeds, 4, &[lonely]);
        assert_eq!(pred, vec![None]);
        let proba = lp.predict_proba(&seeds, 4, &[lonely]);
        assert_eq!(proba[0], vec![0.5, 0.5]);
    }

    #[test]
    fn odd_layer_count_reaches_iocs_not_events() {
        let (g, n) = graph();
        let csr = Csr::from_store(&g);
        let lp = LabelPropagation::new(&csr, 2);
        let mut seeds = vec![None; g.node_count()];
        seeds[n[0].index()] = Some(0);
        // After 1 layer the label sits on ip0, not on e1.
        let scores = lp.propagate(&seeds, 1);
        let k = 2;
        assert!(scores[n[1].index() * k] > 0.0);
        assert_eq!(scores[n[2].index() * k], 0.0);
    }

    /// The pre-pool scatter formulation, kept as the reference the
    /// row-parallel gather is validated against.
    fn propagate_scatter_reference(
        lp: &LabelPropagation<'_>,
        seeds: &[Option<u16>],
        layers: usize,
    ) -> Vec<f32> {
        let n = lp.csr.node_count();
        let k = lp.n_classes;
        let inv_sqrt_deg: Vec<f32> = (0..n)
            .map(|v| inv_sqrt_degree(lp.csr, NodeId::from(v)))
            .collect();
        let mut f = vec![0.0f32; n * k];
        for (i, seed) in seeds.iter().enumerate() {
            if let Some(c) = seed {
                f[i * k + *c as usize] = 1.0;
            }
        }
        let mut next = vec![0.0f32; n * k];
        for _ in 0..layers {
            next.iter_mut().for_each(|v| *v = 0.0);
            for v in 0..n {
                let dv = inv_sqrt_deg[v];
                if dv == 0.0 || f[v * k..(v + 1) * k].iter().all(|&x| x == 0.0) {
                    continue;
                }
                for &u in lp.csr.neighbors(NodeId::from(v)) {
                    let w = dv * inv_sqrt_deg[u.index()];
                    for (d, &s) in next[u.index() * k..(u.index() + 1) * k]
                        .iter_mut()
                        .zip(&f[v * k..(v + 1) * k])
                    {
                        *d += w * s;
                    }
                }
            }
            std::mem::swap(&mut f, &mut next);
        }
        f
    }

    #[test]
    fn gather_matches_scatter_reference_across_thread_counts() {
        let (g, n) = graph();
        let csr = Csr::from_store(&g);
        let lp = LabelPropagation::new(&csr, 2);
        let mut seeds = vec![None; g.node_count()];
        seeds[n[0].index()] = Some(0);
        seeds[n[3].index()] = Some(1);
        for layers in [1usize, 2, 4] {
            let reference = propagate_scatter_reference(&lp, &seeds, layers);
            let seq = lp.propagate_with_threads(&seeds, layers, 1);
            for (a, b) in seq.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-6, "layers={layers}: {a} vs {b}");
            }
            for threads in [2usize, 8] {
                assert_eq!(
                    lp.propagate_with_threads(&seeds, layers, threads),
                    seq,
                    "layers={layers} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn high_degree_hubs_dilute_signal() {
        // A hub IOC connected to many differently-labelled events gives a
        // near-uniform distribution — the paper's noise-robustness claim.
        let mut g = GraphStore::new();
        let hub = g.upsert_node(NodeKind::Ip, "8.8.8.8");
        let mut events = Vec::new();
        for i in 0..4 {
            let e = g.upsert_node(NodeKind::Event, &format!("e{i}"));
            g.add_edge(e, hub, EdgeKind::InReport).unwrap();
            events.push(e);
        }
        let target = g.upsert_node(NodeKind::Event, "target");
        g.add_edge(target, hub, EdgeKind::InReport).unwrap();
        let csr = Csr::from_store(&g);
        let lp = LabelPropagation::new(&csr, 4);
        let mut seeds = vec![None; g.node_count()];
        for (i, e) in events.iter().enumerate() {
            seeds[e.index()] = Some((i % 4) as u16);
        }
        let proba = lp.predict_proba(&seeds, 2, &[target]);
        let row = &proba[0];
        let (max, min) = row
            .iter()
            .fold((f32::MIN, f32::MAX), |(a, b), &v| (a.max(v), b.min(v)));
        assert!(max - min < 0.05, "hub should give near-uniform: {row:?}");
    }
}
