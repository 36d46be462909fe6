//! The end-to-end TRAIL orchestrator: collect → enrich → merge.

use trail_osint::OsintClient;

use crate::collector::{collect_iter, AptRegistry, CollectStats, CollectedEvent};
use crate::enrich::{Enricher, IngestStats};
use crate::tkg::Tkg;

/// A built TRAIL system: the knowledge graph plus its data source.
pub struct TrailSystem {
    /// The OSINT client events were pulled from.
    pub client: OsintClient,
    /// The knowledge graph.
    pub tkg: Tkg,
    /// Day the TKG was built (analyses are as-of this day).
    pub asof_day: u32,
    /// Collection statistics of the initial build.
    pub collect_stats: CollectStats,
    /// Aggregate enrichment taxonomy across every ingest this system
    /// has run (initial build plus later windows).
    pub ingest_stats: IngestStats,
}

impl TrailSystem {
    /// Build the TKG from every report created before `until_day`.
    pub fn build(client: OsintClient, until_day: u32) -> Self {
        let registry = AptRegistry::new(client.world().config.n_apts);
        let (events, collect_stats) = collect_iter(client.reports_before(until_day), &registry);
        let mut tkg = Tkg::new(registry);
        let mut ingest_stats = IngestStats::default();
        {
            let enricher = Enricher::new(&client, until_day);
            for event in &events {
                ingest_stats.absorb(&enricher.ingest(&mut tkg, event));
            }
        }
        Self {
            client,
            tkg,
            asof_day: until_day,
            collect_stats,
            ingest_stats,
        }
    }

    /// Ingest the reports of a later window into the existing TKG
    /// (the monthly update of the longitudinal study). Returns the
    /// collected events and per-event ingest statistics.
    pub fn ingest_window(&mut self, lo: u32, hi: u32) -> Vec<(CollectedEvent, IngestStats)> {
        let (events, stats) = collect_iter(self.client.reports_between(lo, hi), &self.tkg.registry);
        self.collect_stats.kept += stats.kept;
        self.collect_stats.unresolved += stats.unresolved;
        self.collect_stats.conflicting += stats.conflicting;
        self.collect_stats.rejected_indicators += stats.rejected_indicators;
        self.asof_day = self.asof_day.max(hi);
        let enricher = Enricher::new(&self.client, hi);
        events
            .into_iter()
            .map(|e| {
                let s = enricher.ingest(&mut self.tkg, &e);
                self.ingest_stats.absorb(&s);
                (e, s)
            })
            .collect()
    }

    /// Degradation score of everything ingested so far — 0.0 when the
    /// feed was healthy, approaching 1.0 when enrichment ran against a
    /// dead feed. Attribution results should be read alongside this.
    pub fn degradation(&self) -> f64 {
        self.ingest_stats.degradation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trail_osint::{World, WorldConfig};

    fn client() -> OsintClient {
        OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(55))))
    }

    #[test]
    fn build_ingests_all_precutoff_events() {
        let c = client();
        let cutoff = c.world().config.cutoff_day;
        let sys = TrailSystem::build(c, cutoff);
        assert!(sys.collect_stats.kept > 0);
        assert_eq!(sys.tkg.events.len(), sys.collect_stats.kept);
        // The TKG grows beyond first-order nodes via enrichment.
        let (n_nodes, n_edges) = (sys.tkg.graph.node_count(), sys.tkg.graph.edge_count());
        assert!(n_nodes > sys.tkg.events.len() * 2);
        assert!(n_edges >= n_nodes / 2);
    }

    #[test]
    fn incremental_window_ingest_extends_graph() {
        let c = client();
        let cutoff = c.world().config.cutoff_day;
        let horizon = c.world().config.horizon_day();
        let mut sys = TrailSystem::build(c, cutoff);
        let before = sys.tkg.events.len();
        let ingested = sys.ingest_window(cutoff, horizon);
        assert!(!ingested.is_empty());
        assert_eq!(sys.tkg.events.len(), before + ingested.len());
        assert_eq!(sys.asof_day, horizon);
    }

    #[test]
    fn build_aggregates_the_ingest_taxonomy() {
        let c = client();
        let cutoff = c.world().config.cutoff_day;
        let mut sys = TrailSystem::build(c, cutoff);
        let built = sys.ingest_stats.clone();
        assert!(built.first_order > 0);
        assert!(built.linked > 0, "no depth-2 links in a full build");
        assert!(
            built.missed_permanent > 0,
            "default 10% gaps produced no misses"
        );
        assert_eq!(
            built.missed_transient, 0,
            "no faults injected, yet transient misses"
        );
        // Window ingests keep accumulating into the same aggregate.
        let horizon = sys.client.world().config.horizon_day();
        sys.ingest_window(cutoff, horizon);
        assert!(sys.ingest_stats.first_order > built.first_order);
    }

    #[test]
    fn event_labels_match_world_truth_up_to_label_noise() {
        let c = client();
        let cutoff = c.world().config.cutoff_day;
        let sys = TrailSystem::build(c.clone(), cutoff);
        let mut agree = 0;
        for e in &sys.tkg.events {
            let truth = c.world().truth(&e.report_id).expect("generated event");
            if truth == e.apt as usize {
                agree += 1;
            }
        }
        let frac = agree as f64 / sys.tkg.events.len() as f64;
        assert!(frac > 0.8, "only {frac} of labels agree with ground truth");
        assert!(frac <= 1.0);
    }
}
