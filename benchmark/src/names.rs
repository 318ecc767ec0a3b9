//! Every workload and metric name the binary can emit. `BENCHMARK.json`
//! repeats these tables; a unit test keeps the two identical.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Repeats exactly at a fixed seed (mask quality is deterministic;
    /// wall clocks and RSS are not).
    pub exact: bool,
}

/// One metric of a single layer (layer = crate), from the `--trace 1` run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Documentation only: per-layer metrics have no bound, so nothing
    /// but the comparison with `BENCHMARK.json` reads the direction.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// The bounds are the 0.25 the contract allows at most, because the
/// run-to-run spread on the noisy 2-core box the sizing was done on
/// (README "Sizing") leaves no room for less: timings spread by up to 0.19
/// there, and the quality numbers — exact at one seed — by up to 0.15 from
/// seed to seed, since every seed is a different set of clips.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("tat_s", "s", Better::Lower, 0.25, false),
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10, false),
    e2e("l2_px", "px", Better::Lower, 0.25, true),
    e2e("pvband_px", "px", Better::Lower, 0.25, true),
    e2e("stitch_per_crossing", "px", Better::Lower, 0.25, true),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, reported by every workload with `--trace 1`.
/// Sizes follow the workload: FFT, litho and solver probes run on the
/// workload's solve grid (256² tiles, or the whole 512² clip for
/// `clip512_fullchip`), tile probes on its partition.
pub const PER_LAYER: &[PerLayer] = &[
    layer("fft.rfft2d_fwd_us", "us", Better::Lower),
    layer("fft.c2c_inv_support_us", "us", Better::Lower),
    layer("fft.c2c_fwd_support_us", "us", Better::Lower),
    layer("fft.rfft2d_inv_support_us", "us", Better::Lower),
    layer("fft.rfft2d_fwd_gflops", "Gflop/s", Better::Higher),
    layer("litho.simulate_us", "us", Better::Lower),
    layer("litho.gradient_us", "us", Better::Lower),
    layer("litho.sim_residual_share", "ratio", Better::Lower),
    layer("litho.bank_build_ms", "ms", Better::Lower),
    layer("litho.solve_system_build_ms", "ms", Better::Lower),
    layer("litho.inspection_system_build_ms", "ms", Better::Lower),
    layer("opt.pixel_iter_ms", "ms", Better::Lower),
    layer("opt.pixel_solve_fixed_ms", "ms", Better::Lower),
    layer("opt.cold_iter_ms", "ms", Better::Lower),
    layer("opt.cold_solve_fixed_ms", "ms", Better::Lower),
    layer("opt.iter_residual_share", "ratio", Better::Lower),
    layer("tile.assemble_ms", "ms", Better::Lower),
    layer("tile.restrict_us", "us", Better::Lower),
    layer("tile.partition_ms", "ms", Better::Lower),
    layer("tile.dispatch_us", "us", Better::Lower),
    layer("tile.worker_busy_share", "ratio", Better::Higher),
    layer("core.coarse_tile_s", "s", Better::Lower),
    layer("core.fine_tile_s", "s", Better::Lower),
    layer("core.refine_tile_s", "s", Better::Lower),
    layer("core.assembly_s", "s", Better::Lower),
    layer("core.assembly_share", "ratio", Better::Lower),
    layer("core.tile_solve_ms_p50", "ms", Better::Lower),
    layer("core.tile_solve_ms_max", "ms", Better::Lower),
    layer("core.unattributed_share", "ratio", Better::Lower),
    layer("core.tile_solve_residual_share", "ratio", Better::Lower),
    layer("core.tiles_solved", "count", Better::Lower),
    layer("core.solver_iterations", "count", Better::Lower),
    layer("core.tiles_reused_share", "ratio", Better::Higher),
    layer("core.diff_layouts_ms", "ms", Better::Lower),
    layer("store.get_us", "us", Better::Lower),
    layer("store.put_us", "us", Better::Lower),
    layer("store.hits", "count", Better::Higher),
    layer("store.misses", "count", Better::Lower),
    layer("metrics.inspect_ms", "ms", Better::Lower),
    layer("par.inner2_speedup", "ratio", Better::Higher),
    layer("layout.generate_ms", "ms", Better::Lower),
    layer("trace.tat_s", "s", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
];

/// Collects one run's metric values against a table, so a name outside
/// the table cannot be emitted and a name inside it cannot be forgotten.
#[derive(Debug)]
pub struct Metrics {
    table: Vec<(&'static str, &'static str)>,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// A collector for the end-to-end table.
    pub fn end_to_end() -> Self {
        Self::over(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    /// A collector for the per-layer table.
    pub fn per_layer() -> Self {
        Self::over(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    }

    fn over(table: Vec<(&'static str, &'static str)>) -> Self {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the table, a name set twice, or a value
    /// that is not a finite number — each is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(key, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(key, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// The collected `(name, value, unit)` triples in table order.
    ///
    /// # Panics
    ///
    /// Panics if any metric of the table was never set.
    pub fn finish(self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .map(|&(name, unit)| {
                let value = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use ilt_json::Json;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry lacks string {key}"))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
    }

    #[test]
    fn setup_s_is_present_with_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_emits() {
        let doc = manifest();
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let got: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(got, want);

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(bound, m.bound, "{}", m.name);
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_command_builds_this_package() {
        let doc = manifest();
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect();
        assert!(command.contains(&"benchmark/Cargo.toml"));
        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
        // Run by hand, the benchmark measures as long as the driver's runs.
        assert_eq!(crate::Args::parse(&[]).unwrap().seconds, seconds as f64);
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's tables")]
    fn unknown_metric_names_cannot_be_emitted() {
        Metrics::end_to_end().set("latency_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn forgotten_metrics_are_caught() {
        let mut m = Metrics::end_to_end();
        m.set("tat_s", 1.0);
        let _ = m.finish();
    }
}
