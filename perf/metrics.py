"""The benchmark's declared metric table (perf/README.md).

One row per metric: name, unit, which direction is better and the
workloads it is measured on; a per-layer row also names the end-to-end
metric and workload it should move.

An end-to-end metric's regression bound on a workload is the share of
the baseline median by which it may worsen before compare.py calls a
change a regression. The bounds are measured, not chosen: `run.py
--calibrate` makes two sets of ten measured runs of every workload,
each run at another seed, and writes baseline/bounds.json with

    bound = min(0.25, max(0.03, 3 x (q3 - q1) / median))

taking the wider of the two sets' spreads. Three times the spread, not
twice, keeps every spread under a third of its bound, as BENCHMARK.json's
format asks; 0.25 is the largest bound that format allows. The
deterministic metrics (freshness, error_rate) have bound 0: at a fixed
seed any change in them is a change in behaviour.

BENCHMARK.json's format asks every listed end-to-end metric of every
workload and never 0, one bound per metric, and per-layer entries of
name, unit and direction only. So it lists the four end-to-end metrics
every workload has, each with the largest of its workload bounds and
setup_s with the largest of all; and the per-layer metrics that every
workload has or that are not times (a share, count or size reads 0 where
its layer does not run). The other rows, each per-workload bound and
each per-layer target live here; run.py reports them and compare.py
gates on them.

`python3 perf/metrics.py` prints BENCHMARK.json; run.py refuses to run
when the committed file differs from it.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Tuple

STUDY, STEADY, HOSTILE, SERVE = (
    "study", "crawl-steady", "crawl-hostile", "serve-checkpoint")
ALL = (STUDY, STEADY, HOSTILE, SERVE)
CRAWL = (STEADY, HOSTILE, SERVE)

WORKLOADS = {
    STUDY: "paper Section 2 page-window campaign; simweb evolution and the "
           "experiment tables do all the work and no crawler layer runs",
    STEADY: "incremental crawler at N=4 with 16 KiB bodies; the fetch path "
            "(body synthesis, checksums, engine fan-out) binds",
    HOSTILE: "same crawler on a faulty spider-trap web with 0-byte bodies; "
             "failure settle, frontier, AllUrls growth and rebalance bind",
    SERVE: "paged-store crawl with a view published every step, daily "
           "incremental checkpoints and an open-loop reader",
}

RUN_SECONDS = 25
MIN_BOUND, MAX_BOUND, SPREAD_FACTOR = 0.03, 0.25, 3.0
BOUNDS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "baseline", "bounds.json")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    workloads: Tuple[str, ...]
    deterministic: bool = False  # end-to-end metrics: bound 0
    moves: str = ""              # per-layer metrics only
    in_manifest: bool = False


E2E = [
    Metric("setup_s", "s", "lower", ALL, in_manifest=True),
    Metric("pages_per_s", "1/s", "higher", ALL, in_manifest=True),
    Metric("cpu_us_per_page", "us", "lower", ALL, in_manifest=True),
    Metric("peak_rss_mb", "MB", "lower", ALL, in_manifest=True),
    Metric("freshness", "share", "higher", CRAWL, deterministic=True),
    Metric("query_p50_us", "us", "lower", (SERVE,)),
    Metric("query_p99_us", "us", "lower", (SERVE,)),
    Metric("checkpoint_inc_ms", "ms", "lower", (SERVE,)),
    Metric("checkpoint_full_ms", "ms", "lower", (SERVE,)),
    Metric("restore_ms", "ms", "lower", (SERVE,)),
    Metric("error_rate", "share", "lower", ALL, deterministic=True),
]


def _layer(name, unit, better, workloads, moves, in_manifest=None):
    if in_manifest is None:
        in_manifest = workloads == ALL or unit not in ("s", "ms", "us")
    return Metric(name, unit, better, workloads, moves=moves,
                  in_manifest=in_manifest)


LAYER = [
    _layer("simweb.fetch_us_mean", "us", "lower", ALL,
           "pages_per_s on crawl-steady and study"),
    _layer("simweb.probe_fetch_us_p50", "us", "lower", ALL,
           "pages_per_s on crawl-steady; no change on crawl-hostile"),
    _layer("simweb.probe_fetch_us_tail", "us", "lower", ALL,
           "pages_per_s on crawl-steady; no change on crawl-hostile"),
    _layer("simweb.probe_scaling", "x", "higher", ALL,
           "pages_per_s on crawl-steady; no change on crawl-hostile"),
    _layer("experiment.day_ms_p50", "ms", "lower", (STUDY,),
           "pages_per_s on study"),
    _layer("experiment.day_ms_tail", "ms", "lower", (STUDY,),
           "pages_per_s on study"),
    _layer("engine.fetch_s", "s", "lower", CRAWL,
           "pages_per_s on crawl-steady"),
    _layer("engine.fetch_share", "share", "lower", CRAWL,
           "pages_per_s on crawl-steady"),
    _layer("engine.fetch_parallel_eff", "share", "higher", CRAWL,
           "pages_per_s on crawl-steady"),
    _layer("engine.shard_skew", "x", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("frontier.plan_s", "s", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("frontier.plan_share", "share", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("frontier.spec_reuse_ratio", "share", "higher", CRAWL,
           "none; an input to the keep-or-delete pipeline decision"),
    _layer("pipeline.ceiling_share", "share", "lower", CRAWL,
           "the most pages_per_s the pipeline can save; deleting it "
           "should move no pages_per_s"),
    _layer("apply.s", "s", "lower", CRAWL, "pages_per_s on crawl-hostile"),
    _layer("apply.share", "share", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("apply.shard_s", "s", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("apply.barrier_s", "s", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("apply.barrier_share", "share", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("apply.lease_revocation_ratio", "share", "lower", CRAWL,
           "pages_per_s on crawl-hostile"),
    _layer("freshness.measure_s", "s", "lower", CRAWL,
           "pages_per_s on every crawl workload"),
    _layer("freshness.measure_share", "share", "lower", CRAWL,
           "pages_per_s on every crawl workload"),
    _layer("crawler.step_ms_p50", "ms", "lower", CRAWL,
           "pages_per_s on every crawl workload"),
    _layer("crawler.step_ms_tail", "ms", "lower", CRAWL,
           "pages_per_s on every crawl workload"),
    _layer("crawler.unattributed_s", "s", "lower", CRAWL,
           "pages_per_s on crawl-hostile (and crawl-steady)"),
    _layer("crawler.unattributed_share", "share", "lower", CRAWL,
           "pages_per_s on crawl-hostile (and crawl-steady)"),
    _layer("crawler.wasted_fetch_share", "share", "lower", CRAWL,
           "freshness on crawl-hostile"),
    _layer("crawler.failure_share", "share", "lower", CRAWL,
           "freshness on crawl-hostile"),
    _layer("serving.publish_ms_p50", "ms", "lower", (SERVE,),
           "pages_per_s on serve-checkpoint"),
    _layer("serving.publish_ms_tail", "ms", "lower", (SERVE,),
           "pages_per_s on serve-checkpoint"),
    _layer("serving.publish_share", "share", "lower", (SERVE,),
           "pages_per_s on serve-checkpoint"),
    _layer("serving.acquire_us_tail", "us", "lower", (SERVE,),
           "query_p99_us on serve-checkpoint"),
    _layer("serving.scan_us_p50", "us", "lower", (SERVE,),
           "query_p50_us on serve-checkpoint"),
    _layer("serving.generator_late_ms_tail", "ms", "lower", (SERVE,),
           "none; harness health: above 1 ms the query metrics are invalid"),
    _layer("snapshot.inc_bytes_p50", "bytes", "lower", (SERVE,),
           "checkpoint_inc_ms on serve-checkpoint"),
    _layer("snapshot.inc_mb_per_s", "MB/s", "higher", (SERVE,),
           "checkpoint_inc_ms on serve-checkpoint", in_manifest=False),
    _layer("snapshot.checkpoint_share", "share", "lower", (SERVE,),
           "pages_per_s on serve-checkpoint"),
    _layer("snapshot.full_bytes", "bytes", "lower", (SERVE,),
           "checkpoint_full_ms on serve-checkpoint"),
    _layer("snapshot.delta_log_bytes", "bytes", "lower", (SERVE,),
           "restore_ms on serve-checkpoint"),
    _layer("storage.page_reads", "count", "lower", (SERVE,),
           "pages_per_s on serve-checkpoint"),
    _layer("storage.page_evictions", "count", "lower", (SERVE,),
           "pages_per_s on serve-checkpoint"),
    _layer("trace.overhead_share", "share", "lower", ALL,
           "none; harness health: time spent recording spans over the "
           "timed wall, must stay under 0.05"),
]

BY_NAME = {m.name: m for m in E2E + LAYER}


def bound_from_spread(spread):
    """The bound formula above, rounded up to a thousandth."""
    raw = max(MIN_BOUND, SPREAD_FACTOR * spread)
    return min(MAX_BOUND, math.ceil(1000 * raw) / 1000)


def load_bounds():
    """{workload: {metric: bound}} from baseline/bounds.json."""
    with open(BOUNDS_FILE) as f:
        calibration = json.load(f)
    return {w: {name: row["bound"] for name, row in metrics.items()}
            for w, metrics in calibration["workloads"].items()}


def bound(metric, workload, bounds):
    return 0.0 if metric.deterministic else bounds[workload][metric.name]


def manifest():
    """BENCHMARK.json, derived from the table and the measured bounds."""
    bounds = load_bounds()
    e2e = {m.name: max(bound(m, w, bounds) for w in m.workloads)
           for m in E2E if m.in_manifest}
    e2e["setup_s"] = max(e2e.values())
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": e2e[m.name]}
            for m in E2E if m.in_manifest],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in LAYER if m.in_manifest],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
