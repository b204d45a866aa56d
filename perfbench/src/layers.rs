//! Per-layer counts and ratios from the program's own counters (the
//! `DESIGN.md` metrics taxonomy), summed over one pass.

use crate::report::{counter, counter_sum, Metrics};
use crate::stats::ratio;
use std::collections::BTreeMap;

/// Adds `more` into `total`, counter by counter.
pub fn add_counters(total: &mut BTreeMap<String, u64>, more: &BTreeMap<String, u64>) {
    for (k, v) in more {
        *total.entry(k.clone()).or_default() += v;
    }
}

/// Derives the counter-based per-layer metrics of one pass.
pub fn from_counters(c: &BTreeMap<String, u64>, m: &mut Metrics) {
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    set("capture.records_read", counter(c, "capture.records_read"));
    set("capture.crc_skipped", counter(c, "capture.crc_skipped"));

    set(
        "transport.reassembled",
        counter_sum(c, "transport.", ".reassembled"),
    );
    let rejects: f64 = c
        .iter()
        .filter(|(k, _)| k.starts_with("transport.") && k.contains(".reject."))
        .fold(0.0, |sum, (_, v)| sum + *v as f64);
    set("transport.rejects", rejects);

    let read = counter(c, "ocr.readings_read");
    set("ocr.readings", read);
    set("ocr.kept_ratio", ratio(counter(c, "ocr.filter_kept"), read));

    set(
        "association.pairs_formed",
        counter(c, "pipeline.pairs_formed"),
    );
    let above = counter(c, "pipeline.matches_above_threshold");
    let below = counter(c, "pipeline.matches_below_threshold");
    let rescued = counter(c, "pipeline.matches_rescued");
    set(
        "association.accept_ratio",
        ratio(above + rescued, above + below),
    );

    let fits = counter(c, "gp.fits");
    set("gp.fits", fits);
    set("gp.generations", counter(c, "gp.generations"));
    set("gp.evaluations", counter(c, "gp.evaluations"));
    let dedup_hits = counter(c, "gp.dedup_hits");
    let distinct = counter(c, "gp.dedup_distinct");
    let cache_hits = counter(c, "gp.fitness_cache_hits");
    set(
        "gp.dedup_hit_ratio",
        ratio(dedup_hits, dedup_hits + distinct),
    );
    set(
        "gp.cache_hit_ratio",
        ratio(cache_hits, cache_hits + dedup_hits + distinct),
    );
    set(
        "gp.threshold_stop_ratio",
        ratio(counter(c, "gp.threshold_stops"), fits),
    );

    let busy = counter(c, "par.busy_us") / 1e3;
    let wait = counter(c, "par.wait_us") / 1e3;
    let idle = counter(c, "par.idle_us") / 1e3;
    set("par.busy_ms", busy);
    set("par.wait_ms", wait);
    set("par.idle_ms", idle);
    set("par.utilization", ratio(busy, busy + wait + idle));
    let inline = counter(c, "par.inline_calls");
    set(
        "par.inline_share",
        ratio(inline, inline + counter(c, "par.calls")),
    );
    set("par.batch_flushes", counter(c, "par.batch_flushes"));
}
