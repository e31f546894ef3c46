//! Tests of the observation bundle's metrics documents, which
//! [`crate::observe`] renders from the merged registry snapshot:
//! `metrics.prom`, `series.csv`, `metrics.json`, `slo.json` and
//! `counters.json`.

#[cfg(test)]
mod tests {
    use crate::observe::observe_bundle;
    use crate::observe::tests::small_cells;

    #[test]
    fn default_cells_exercise_every_subsystem() {
        let bundle = observe_bundle(&small_cells(), 2).expect("runs");
        let s = &bundle.snapshot;
        // Engine + device + pool from the scan cells.
        assert!(s
            .counters
            .contains_key("e33_ssd_pis8_0_01_io_pages_read_total"));
        assert!(s.hists.contains_key("e33_ssd_pis8_0_01_io_latency_us"));
        // The PIS n=8 cell should show the §2 plateau in its depth series.
        let depth = &s.series["e33_ssd_pis8_0_01_engine_queue_depth"];
        assert!(depth.max_value() >= 4, "depth series: {:?}", depth.points);
        // Shared scans, admission and WAL from the shared-writes cell.
        let ses = "e33_ssd_ses8_shared_writes";
        assert!(s.counters[&format!("{ses}_shared_attach_total")] >= 1);
        assert!(s.counters[&format!("{ses}_admission_total")] >= 1);
        assert!(s
            .hists
            .contains_key(&format!("{ses}_wal_group_commit_records")));
        assert!(s.series.contains_key(&format!("{ses}_wal_flush_lag_lsn")));
        assert!(s
            .series
            .contains_key(&format!("{ses}_admission_active_leases")));
        // Every cell has a summary row; a session cell's counts its queries.
        let labels: Vec<&str> = bundle.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "E33-SSD/PIS8@0.01",
                "E33-SSD/FTS@0.01",
                "E33-HDD/SortedIS+pf8@0.01",
                "E33-SSD/SES8-shared-writes",
                "C33-SSD/SES8"
            ]
        );
        for row in &bundle.cells {
            assert!(row.rows_matched > 0 && row.io_ops > 0 && row.runtime_secs > 0.0);
        }
        // Both session cells have a `sessions.json` entry with a full
        // admission journal.
        assert_eq!(bundle.sessions.len(), 2);
        for entry in &bundle.sessions {
            assert_eq!(entry.report.per_session.len(), 8);
            assert_eq!(
                entry.admissions.len() as u64,
                entry.report.total_completed()
            );
        }
        // Documents are well formed.
        assert!(bundle.doc("metrics.prom").contains("# TYPE"));
        assert!(bundle.doc("series.csv").starts_with("series,t_us,value"));
        assert!(bundle.doc("sessions.json").contains("\"admissions\""));
    }

    #[test]
    fn default_slos_pass_on_the_default_cells() {
        let bundle = observe_bundle(&small_cells(), 2).expect("runs");
        for v in &bundle.verdicts {
            assert!(
                v.pass,
                "SLO {} failed: found={} observed={} limit={}",
                v.name, v.found, v.observed, v.limit
            );
        }
        assert!(bundle.doc("slo.json").starts_with("{\n  \"pass\": true"));
    }
}
