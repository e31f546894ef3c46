//! Tests of the observation bundle's trace documents, which
//! [`crate::observe`] renders: `trace.json` (every cell's tracks under its
//! label), `hists.csv` and `summary.json`.

#[cfg(test)]
mod tests {
    use crate::observe::tests::small_cells;
    use crate::observe::{default_observe_cells, observe_bundle};

    #[test]
    fn pis8_cell_has_modal_queue_depth_eight() {
        // The paper's §2 observation: PIS with n workers drives the device
        // at queue depth n.
        let cells = default_observe_cells(7);
        let bundle = observe_bundle(&cells[..1], 1).expect("capture");
        assert_eq!(
            bundle.cells[0].modal_queue_depth, 8,
            "PIS n=8 should keep 8 I/Os outstanding most of the time"
        );
        assert!(bundle.cells[0].events_recorded > 0);
    }

    #[test]
    fn chrome_json_carries_cell_prefixed_tracks() {
        let bundle = observe_bundle(&small_cells()[..1], 1).expect("capture");
        let trace = bundle.doc("trace.json");
        assert!(trace.contains("E33-SSD/PIS8@0.01/io"));
        assert!(trace.contains("\"traceEvents\""));
        assert!(bundle
            .doc("hists.csv")
            .starts_with("hist,bucket_lo,bucket_hi,count"));
    }

    #[test]
    fn a_session_cell_traces_beside_a_scan() {
        let cells = small_cells();
        let bundle = observe_bundle(&[cells[0].clone(), cells[3].clone()], 1).expect("capture");
        let row = &bundle.cells[1];
        assert_eq!(row.label, "E33-SSD/SES8-shared-writes");
        assert!(row.rows_matched > 0 && row.io_ops > 0 && row.runtime_secs > 0.0);
        // One track per session, named under the cell label.
        let trace = bundle.doc("trace.json");
        for s in 0..8 {
            let track = format!("E33-SSD/SES8-shared-writes/session{s}");
            assert!(trace.contains(&track), "missing {track}");
        }
    }
}
