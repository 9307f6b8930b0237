//! Simulated counts: exact for a given seed, and moved only by a change
//! to the model. They explain host time; they are never host time.

use crate::report::Metrics;
use droplet::RunResult;

/// Reports the simulated counts of `results` (one replay, or every cell
/// of a study): counts summed, ratios taken over the sums.
pub fn put_simulated<'a>(m: &mut Metrics, results: impl IntoIterator<Item = &'a RunResult>) {
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    let mut dtlb_misses = 0u64;
    let mut l1_misses = 0u64;
    let (mut l2_hits, mut l2_accesses) = (0u64, 0u64);
    let mut l3_misses = 0u64;
    let mut dram_accesses = 0u64;
    let mut queue_delay = 0u64;
    let mut bw_util = 0.0;
    let mut n = 0usize;
    for r in results {
        n += 1;
        cycles += r.core.cycles;
        instructions += r.core.instructions;
        dtlb_misses += r.sys.dtlb_misses;
        l1_misses += r.l1.demand_misses().total();
        if let Some(l2) = &r.l2 {
            l2_hits += l2.demand_hits.total();
            l2_accesses += l2.demand_accesses.total();
        }
        l3_misses += r.l3.demand_misses().total();
        dram_accesses += r.dram.total_accesses();
        queue_delay += r.dram.queue_delay_cycles;
        bw_util += r.bandwidth_utilization();
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.put("cpu.cycles", cycles as f64, "cycles");
    m.put("cpu.ipc", ratio(instructions, cycles), "ratio");
    m.put("trace.dtlb_misses", dtlb_misses as f64, "count");
    m.put("cache.l1.misses", l1_misses as f64, "count");
    m.put("cache.l2.hit_rate", ratio(l2_hits, l2_accesses), "ratio");
    m.put(
        "cache.l3.mpki",
        1000.0 * ratio(l3_misses, instructions),
        "1/kinst",
    );
    m.put("mem.dram_accesses", dram_accesses as f64, "count");
    m.put(
        "mem.bw_util",
        if n == 0 { 0.0 } else { bw_util / n as f64 },
        "ratio",
    );
    m.put("mem.queue_delay_cycles", queue_delay as f64, "cycles");
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet::gap::Algorithm;
    use droplet::graph::gen::{rmat, RmatSkew};
    use droplet::{run_workload, SystemConfig};
    use std::sync::Arc;

    #[test]
    fn one_result_reports_its_own_ratios() {
        let g = Arc::new(rmat(9, 8, RmatSkew::Kron, 5));
        let r = run_workload(
            &Algorithm::Pr.trace(&g, 20_000),
            &SystemConfig::test_scale(),
            5_000,
        );
        let mut m = Metrics::default();
        put_simulated(&mut m, [&r]);
        assert_eq!(m.get("cpu.ipc"), Some(r.core.ipc()));
        assert_eq!(m.get("cache.l2.hit_rate"), Some(r.l2_hit_rate()));
        assert!((m.get("cache.l3.mpki").unwrap() - r.llc_mpki()).abs() < 1e-9);
        assert_eq!(m.get("mem.bw_util"), Some(r.bandwidth_utilization()));
    }
}
