"""Wall-clock benchmark of REVERE's four user paths.

Usage, from the repository root::

    python3 perfbench/run.py --workload pdms_query --seed 1 --seconds 30 --trace 0

Workloads: ``pdms_query``, ``pdms_serve``, ``corpus_match`` and
``mangrove_publish`` (see ``perfbench/README.md``).  One process runs
one workload with a single client thread and the program's default
``SerialRuntime``.

``--trace 0`` is the measured run: it sets the workload up at least
three times and for at least two seconds (``setup_s`` is the median),
then times a fixed, seeded operation sequence, cut off after
``--seconds``, and prints the end-to-end metrics.  ``--trace 1`` is the diagnostic run: an untraced phase for
a third of ``--seconds``, then a fresh set-up with timing wrappers on each
layer's entry points (``perfbench/tracing.py``) and the same number of
operations, and prints the per-layer metrics.

Every operation is checked; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-ups in a measured run; ``setup_s`` is their median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 2.0

# Metrics whose value comes from the simulated network's cost model,
# not from a clock or a count of real work.
MODELED = ("network.messages_per_op", "network.tuples_shipped_per_op",
           "network.modeled_ms_per_op")


def percentile(samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of raw samples (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Phase:
    """Samples and failure counts of one timed pass over the operations."""

    def __init__(self):  # noqa: D107
        self.samples: dict[str, list[float]] = {"read": [], "write": []}
        self.attempted = 0
        self.raised = 0

    @property
    def op_ms(self) -> float:
        return sum(self.samples["read"]) + sum(self.samples["write"])

    @property
    def ops_per_s(self) -> float:
        completed = self.attempted - self.raised
        return completed / (self.op_ms / 1000.0) if self.op_ms else 0.0


def run_phase(workload, seconds: float | None, limit: int | None = None,
              tamper=None, profiler=None) -> Phase:
    """Time ``workload.operations()`` until exhausted, ``limit`` ops or ``seconds``.

    Only ``Op.run`` is inside the timer, and a ``profiler`` records into
    its ``"ops"`` phase only while ``Op.run`` executes (oracle work in
    between goes to ``"between"``).  ``tamper(index, output)`` (a
    self-test hook) may replace an output before it is checked.
    """
    phase = Phase()
    operations = workload.operations()
    started = perf_counter()
    try:
        for op in operations:
            if limit is not None and phase.attempted >= limit:
                break
            index = phase.attempted
            phase.attempted += 1
            if profiler is not None:
                profiler.phase = "ops"
            begun = perf_counter()
            try:
                output = op.run()
            except Exception:  # noqa: BLE001 - a raising operation is a failed one
                phase.samples[op.kind].append((perf_counter() - begun) * 1000.0)
                phase.raised += 1
                workload.failed_ops.add(index)
                continue
            finally:
                if profiler is not None:
                    profiler.phase = "between"
            phase.samples[op.kind].append((perf_counter() - begun) * 1000.0)
            if tamper is not None:
                output = tamper(index, output)
            try:
                ok = op.check is None or op.check(output)
                if op.keep is not None:
                    op.keep(output)
            except Exception:  # noqa: BLE001 - malformed output fails the op
                ok = False
            if not ok:
                workload.failed_ops.add(index)
            if seconds is not None and perf_counter() - started >= seconds:
                break
    finally:
        operations.close()
    return phase


def machine_loop_ms() -> float:
    """Wall time of a fixed pure-Python loop, a gauge of the machine's speed.

    Reported in the provenance only, next to the metrics it helps
    interpret; on a shared machine it drifts by tens of percent.
    """
    started = perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return (perf_counter() - started) * 1000.0


def failures(workload, phase: Phase) -> int:
    """Failed operations, with whole-state oracle failures counted too."""
    return min(phase.attempted, len(workload.failed_ops) + len(workload.state_failures))


def set_up(cls, seed: int, sizes: dict, workdir: Path, repeat: bool):
    """Set the workload up; returns (last workload, seconds per set-up).

    With ``repeat`` it sets up at least ``MIN_SETUPS`` times and goes on
    until ``SETUP_BUDGET_S`` have passed (at most ``MAX_SETUPS``), so a
    fast set-up still gets a median over enough samples.
    """
    times = []
    workload = None
    while True:
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()
        candidate = cls(seed=seed, sizes=dict(sizes), workdir=workdir / f"setup{len(times)}")
        started = perf_counter()
        candidate.setup()
        times.append(perf_counter() - started)
        workload = candidate
        if not repeat or len(times) >= MAX_SETUPS or (
            len(times) >= MIN_SETUPS and sum(times) >= SETUP_BUDGET_S
        ):
            return workload, times


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase: Phase, setup_times: list[float], peak_mb: float) -> dict:
    """The end-to-end metrics of one untraced phase.

    ``peak_mb`` is read when the timed phase ends, before the end-of-run
    oracles, so their memory is not charged to the program.
    """
    reads, writes = phase.samples["read"], phase.samples["write"]
    return {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "read_p50_ms": (percentile(reads, 0.5), "ms"),
        "read_p90_ms": (percentile(reads, 0.9), "ms"),
        "write_p50_ms": (percentile(writes, 0.5), "ms"),
        "write_p90_ms": (percentile(writes, 0.9), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(profiler, workload, phase: Phase, untraced: Phase) -> dict:
    """Per-layer metrics from the traced phase's wrapper records.

    ``_ms`` metrics are wall clock.  Where the name says ``self`` or the
    layer nests other wrapped layers (reformulation, execution,
    serving maintenance, rdf, apps, match prediction) the value is self
    time; mechanism costs (index build, refresh, snapshot, WAL append,
    registration) are inclusive.  A layer the workload never reaches
    reads 0.
    """
    ops = profiler.records["ops"]
    setup = profiler.records["setup"]

    def rec(label, where=ops):
        return where.get(label) or tracing.Record()

    reads = len(phase.samples["read"])
    writes = len(phase.samples["write"])
    total_ops = reads + writes
    builds = rec("mapping_index.build", setup).calls + rec("mapping_index.build").calls
    build_ms = rec("mapping_index.build", setup).total_ms + rec("mapping_index.build").total_ms
    refo = rec("reformulation.reformulate")
    minimize = rec("datalog.minimize_union")
    evaluate = rec("datalog.evaluate_union")
    execute = rec("execution.execute")
    send = rec("network.send")
    serve = rec("serving.serve")
    maintain = rec("serving.maintain")
    wal_append, wal_write = rec("storage.wal_append"), rec("storage.wal_write")
    snapshot, snapshot_write = rec("storage.snapshot"), rec("storage.snapshot_write")
    predict, refresh = rec("match.predict"), rec("match.refresh")
    blocking, train = rec("match.blocking"), rec("match.train")
    jaro, similar = rec("similarity.jaro"), rec("search.similar_schemas")
    cache = rec("search.cache_get")
    replace = rec("rdf.replace_source")
    refits = rec("tfidf.ensure_fitted")
    op_ms = phase.op_ms
    metrics = {
        "mapping_index.build_ms": (_ratio(build_ms, builds), "ms"),
        "mapping_index.builds": (builds, "count"),
        "reformulation.ms_per_query": (_ratio(refo.self_ms, refo.calls), "ms"),
        "reformulation.rewritings_per_query": (_ratio(refo.counts["rewritings"], refo.calls), "count"),
        "reformulation.nodes_expanded_per_query": (_ratio(refo.counts["nodes_expanded"], refo.calls), "count"),
        "reformulation.rewritings_per_node": (_ratio(refo.counts["rewritings"], refo.counts["nodes_expanded"]), "ratio"),
        "reformulation.capped_queries": (refo.counts["capped"], "count"),
        "datalog.minimize_ms_per_query": (_ratio(minimize.self_ms, refo.calls), "ms"),
        "datalog.minimize_kept_ratio": (_ratio(minimize.counts["out"], minimize.counts["in"]), "ratio"),
        "datalog.evaluate_ms_per_query": (_ratio(evaluate.self_ms, evaluate.calls), "ms"),
        "datalog.answers_per_query": (_ratio(evaluate.counts["answers"], evaluate.calls), "count"),
        "execution.self_ms_per_query": (_ratio(execute.self_ms, execute.calls), "ms"),
        "execution.relations_fetched_per_query": (_ratio(execute.counts["relations_fetched"], execute.calls), "count"),
        "network.ms_per_op": (_ratio(send.total_ms, total_ops), "ms"),
        "network.messages_per_op": (_ratio(send.calls, total_ops), "modeled_msg"),
        "network.tuples_shipped_per_op": (_ratio(send.counts["tuples"], total_ops), "modeled_tuple"),
        "network.modeled_ms_per_op": (_ratio(send.counts["modeled_ms"], total_ops), "modeled_ms"),
        "serving.serve_ms_per_read": (_ratio(serve.self_ms, serve.calls), "ms"),
        "serving.view_keys_per_read": (_ratio(workload.counts.get("view_keys", 0.0), serve.calls), "count"),
        "serving.hit_ratio": (_ratio(serve.counts["hits"], serve.calls), "ratio"),
        "serving.maintain_ms_per_write": (_ratio(maintain.self_ms, writes), "ms"),
        "serving.views_maintained_per_write": (_ratio(maintain.counts["maintained"], writes), "count"),
        "serving.views_skipped_per_write": (_ratio(maintain.counts["skipped"], writes), "count"),
        "serving.incremental_ratio": (_ratio(maintain.counts["incremental"], maintain.counts["maintained"]), "ratio"),
        "serving.register_ms": (rec("serving.register", setup).total_ms, "ms"),
        "storage.wal_append_ms_per_write": (_ratio(wal_append.total_ms, writes), "ms"),
        "storage.wal_bytes_per_write": (_ratio(wal_write.counts["bytes"], writes), "B"),
        "storage.bytes_written_per_user_byte": (_ratio(
            wal_write.counts["bytes"] + snapshot_write.counts["bytes"],
            workload.counts.get("user_bytes", 0.0)), "ratio"),
        "storage.snapshots": (snapshot.calls, "count"),
        "storage.snapshot_ms": (_ratio(snapshot.total_ms, snapshot.calls), "ms"),
        "match.predict_ms_per_read": (_ratio(predict.self_ms, reads), "ms"),
        "match.blocking_ms_per_read": (_ratio(blocking.self_ms, reads), "ms"),
        "match.labels_scored_ratio": (_ratio(blocking.counts["scored"], blocking.counts["available"]), "ratio"),
        "match.refreshes": (refresh.counts["refreshes"], "count"),
        "match.refresh_ms": (_ratio(refresh.total_ms, refresh.counts["refreshes"]), "ms"),
        "match.train_ms_per_write": (_ratio(train.total_ms, writes), "ms"),
        "similarity.jaro_calls_per_read": (_ratio(jaro.calls, reads), "count"),
        "similarity.jaro_ms_per_read": (_ratio(jaro.total_ms, reads), "ms"),
        "search.similar_schemas_ms_per_call": (_ratio(similar.total_ms, similar.calls), "ms"),
        "search.cache_hit_ratio": (_ratio(cache.counts["hits"], cache.calls), "ratio"),
        "rdf.replace_source_ms_per_write": (_ratio(replace.self_ms, writes), "ms"),
        "rdf.triples_changed_per_write": (_ratio(replace.counts["changed"], writes), "count"),
        "apps.refresh_ms_per_write": (_ratio(rec("apps.refresh").self_ms, writes), "ms"),
        "integrity.check_ms_per_write": (_ratio(rec("integrity.check").self_ms, writes), "ms"),
        "apps.search_ms_per_read": (_ratio(rec("apps.search").self_ms, reads), "ms"),
        "tfidf.refits_per_read": (_ratio(refits.counts["refits"], reads), "count"),
        "tfidf.refit_ms": (_ratio(refits.total_ms, refits.counts["refits"]), "ms"),
        "tfidf.docs_scored_per_read": (_ratio(rec("tfidf.cosine").calls, reads), "count"),
        "python.gc_ms_per_op": (_ratio(profiler.gc_ms["ops"], total_ops), "ms"),
        "trace.overhead_ratio": (_ratio(phase.ops_per_s, untraced.ops_per_s), "ratio"),
        "trace.op_ms": (_ratio(op_ms, total_ops), "ms"),
        "trace.unattributed_ms_per_op": (_ratio(op_ms - profiler.top_ms["ops"], total_ops), "ms"),
    }
    return metrics


def self_time_breakdown(profiler, phase: Phase) -> list[tuple[str, float, int]]:
    """(label, self ms per op, calls) for every wrapper that ran in ops.

    The self times plus ``trace.unattributed_ms_per_op`` add up to
    ``trace.op_ms``.
    """
    ops = phase.attempted
    rows = [
        (label, _ratio(record.self_ms, ops), record.calls)
        for label, record in profiler.records["ops"].items()
    ]
    return sorted(rows, key=lambda row: -row[1])


def commit_sha() -> str:
    """HEAD's SHA when run from a git checkout, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, sizes: dict) -> dict:
    """What a reader needs to place a result: code, interpreter, machine, input."""
    return {
        "commit": commit_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "tiny" if args.tiny else "full",
        "sizes": sizes,
        "trace": args.trace,
        "clock": "time.perf_counter wall clock; single client thread, SerialRuntime",
        "modeled_metrics": list(MODELED),
    }


def measure(args, tamper=None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, printable report)."""
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    sizes = dict(cls.TINY if args.tiny else cls.SIZES)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    report: dict = {"provenance": provenance(args, sizes)}
    workloads = []
    try:
        if not args.trace:
            workload, times = set_up(cls, args.seed, sizes, workdir, repeat=True)
            workloads.append(workload)
            loop_before = machine_loop_ms()
            phase = run_phase(workload, args.seconds, tamper=tamper)
            peak_mb = peak_rss_mb()
            report["provenance"]["machine_loop_ms"] = [loop_before, machine_loop_ms()]
            workload.finish(phase.attempted)
            phases = [phase]
            metrics = end_to_end(phase, times, peak_mb)
            report["samples"] = {
                "ops_per_s": phase.attempted, "read": len(phase.samples["read"]),
                "write": len(phase.samples["write"]), "setup_s": len(times),
            }
        else:
            untraced_load, _ = set_up(cls, args.seed, sizes, workdir / "untraced", repeat=False)
            workloads.append(untraced_load)
            untraced = run_phase(untraced_load, args.seconds / 3.0, tamper=tamper)
            untraced_load.finish(untraced.attempted)
            untraced_load.close()
            profiler = tracing.Profiler()
            tracing.install(profiler)
            try:
                traced_load, _ = set_up(cls, args.seed, sizes, workdir / "traced", repeat=False)
                workloads.append(traced_load)
                profiler.phase = "between"
                phase = run_phase(traced_load, None, limit=untraced.attempted,
                                  tamper=tamper, profiler=profiler)
                traced_load.finish(phase.attempted)
            finally:
                profiler.uninstall()
            phases = [untraced, phase]
            metrics = per_layer(profiler, traced_load, phase, untraced)
            report["breakdown"] = self_time_breakdown(profiler, phase)
            report["samples"] = {"ops": phase.attempted, "read": len(phase.samples["read"]),
                                 "write": len(phase.samples["write"])}
    finally:
        for workload in workloads:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failed = sum(failures(w, p) for w, p in zip(workloads, phases))
    report["fail_ratio"] = _ratio(failed, attempted)
    report["state_failures"] = [f for w in workloads for f in w.state_failures]
    report["checks"] = workloads[-1].report
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, report


def print_report(result: dict, report: dict) -> None:
    """Human-readable lines; the JSON result is printed after them."""
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    samples = report["samples"]
    for name, metric in result["metrics"].items():
        count = (samples.get("read") if name.startswith("read_")
                 else samples.get("write") if name.startswith("write_")
                 else samples.get(name, samples.get("ops")))
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    print(f"  {'fail_ratio':<42} {report['fail_ratio']:>14.6g} ratio  "
          f"(n={result['attempted']})")
    for key, value in report["checks"].items():
        print(f"  check {key}: {value}")
    for failure in report["state_failures"]:
        print(f"  FAILED {failure}")
    if "breakdown" in report:
        print("  self time per operation, by wrapper:")
        for label, ms, calls in report["breakdown"]:
            print(f"    {label:<40} {ms:>12.6f} ms  ({calls} calls)")


def bootstrap() -> bool:
    """Put the program's sources and this directory on ``sys.path``.

    False when the checkout holds no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.tiny = False  # the self-test calls measure() with tiny sizes
    # A terminated run still removes its scratch files (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not bootstrap():
        print(f"program source not found under {SRC.name}/repro", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, report = measure(args)
    print_report(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
