"""Per-layer timing for the traced benchmark run.

The traced run patches the public entry points of each layer with
timing wrappers that live here, in the benchmark, not in the program.
Each name is patched where its caller looks it up: module-level
functions in the calling module's namespace (``repro.piazza.execution.
evaluate_union``), methods on their class.  A wrapper records its call
count, its inclusive time and its *self* time (inclusive time minus the
time spent in wrappers nested inside it), plus whatever counts its
``after`` hook derives from arguments and results.

Because every wrapper's self time is charged exactly once, the self
times of all wrappers active during an operation sum to the inclusive
time of its outermost wrappers; the operation's remaining wall time is
reported as unattributed.
"""

from __future__ import annotations

import gc
import importlib
import inspect
from collections import defaultdict
from time import perf_counter


class Record:
    """Accumulated timings and counts for one wrapper label."""

    __slots__ = ("calls", "total_ms", "self_ms", "counts")

    def __init__(self):  # noqa: D107
        self.calls = 0
        self.total_ms = 0.0
        self.self_ms = 0.0
        self.counts: dict[str, float] = defaultdict(float)


class Profiler:
    """Installs timing wrappers and folds their samples into records.

    Records are kept per phase: set-up work (index builds, view
    registration) is recorded under ``"setup"``, the timed operations
    under ``"ops"`` and the oracle work between them under
    ``"between"``.  ``top_ms`` sums the inclusive time of outermost
    wrappers per phase, the attributed part of operation time.
    """

    def __init__(self):  # noqa: D107
        self.phase = "setup"
        self.records: dict[str, dict[str, Record]] = defaultdict(dict)
        self.top_ms: dict[str, float] = defaultdict(float)
        self.gc_ms: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    def record(self, label: str) -> Record:
        """The record of ``label`` in the current phase (created empty)."""
        phase = self.records[self.phase]
        entry = phase.get(label)
        if entry is None:
            entry = phase[label] = Record()
        return entry

    def wrap(self, target, attribute: str, label: str, before=None, after=None):
        """Replace ``target.attribute`` with a timing wrapper.

        ``target`` is a module path or an object (class).  ``before``
        receives the call's arguments and returns a context value;
        ``after(record, args, kwargs, result, context)`` adds counts.
        """
        if isinstance(target, str):
            target = importlib.import_module(target)
        original = getattr(target, attribute)
        stack = self._stack

        def timed(*args, **kwargs):
            context = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = (perf_counter() - started) * 1000.0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_ms[self.phase] += elapsed
                entry = self.record(label)
                entry.calls += 1
                entry.total_ms += elapsed
                entry.self_ms += elapsed - frame[0]
            if after is not None:
                after(entry, args, kwargs, result, context)
            return result

        timed.__wrapped__ = original
        self._patches.append((target, attribute, original))
        setattr(target, attribute, timed)

    def start_gc_clock(self) -> None:
        """Time every garbage collection from the outside."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, event: str, _info: dict) -> None:
        if event == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_ms[self.phase] += (perf_counter() - self._gc_started) * 1000.0

    def uninstall(self) -> None:
        """Restore every patched name and stop the GC clock."""
        while self._patches:
            target, attribute, original = self._patches.pop()
            setattr(target, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def install(profiler: Profiler) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.corpus.match.meta import MetaLearner
    from repro.corpus.match.pipeline import CorpusMatchPipeline
    from repro.corpus.stats import BasicStatistics
    from repro.mangrove.apps import InstantApp, SemanticSearch
    from repro.mangrove.integrity import ConstraintChecker
    from repro.piazza.execution import DistributedExecutor
    from repro.piazza.network import SimulatedNetwork
    from repro.piazza.serving import ViewServer
    from repro.rdf.store import TripleStore
    from repro.search.cache import LRUQueryCache
    from repro.storage.peerlog import PeerLog
    from repro.storage.wal import SnapshotFile, WriteAheadLog
    from repro.text.tfidf import CosineIndex

    wrap = profiler.wrap

    # piazza.mapping_index
    wrap("repro.piazza.peer", "MappingIndex", "mapping_index.build")

    # piazza.reformulation (+ the minimization it calls)
    cap_default = default_max_rewritings()
    seen_before_minimize: list[int] = []

    def reformulate_before(_args, _kwargs):
        seen_before_minimize.clear()
        return None

    def reformulate_after(entry, _args, kwargs, result, _context):
        raw = seen_before_minimize[-1] if seen_before_minimize else len(result.rewritings)
        entry.counts["rewritings"] += len(result.rewritings)
        entry.counts["nodes_expanded"] += result.nodes_expanded
        if raw >= kwargs.get("max_rewritings", cap_default):
            entry.counts["capped"] += 1

    wrap("repro.piazza.peer", "reformulate", "reformulation.reformulate",
         before=reformulate_before, after=reformulate_after)

    def minimize_after(entry, args, _kwargs, result, _context):
        seen_before_minimize.append(len(args[0]))
        entry.counts["in"] += len(args[0])
        entry.counts["out"] += len(result)

    wrap("repro.piazza.reformulation", "minimize_union", "datalog.minimize_union",
         after=minimize_after)

    # piazza.datalog evaluation, piazza.execution, piazza.network
    def evaluate_after(entry, _args, _kwargs, result, _context):
        entry.counts["answers"] += len(result)

    wrap("repro.piazza.execution", "evaluate_union", "datalog.evaluate_union",
         after=evaluate_after)

    def execute_after(entry, _args, _kwargs, stats, _context):
        entry.counts["relations_fetched"] += stats.relations_fetched

    wrap(DistributedExecutor, "execute", "execution.execute", after=execute_after)

    def send_after(entry, args, kwargs, cost, _context):
        # The message size and its cost are the simulated network's
        # model, reported as modeled, never as wall clock.
        entry.counts["tuples"] += args[3] if len(args) > 3 else kwargs["size"]
        entry.counts["modeled_ms"] += cost

    wrap(SimulatedNetwork, "send", "network.send", after=send_after)

    # piazza.serving
    def serve_after(entry, _args, _kwargs, result, _context):
        entry.counts["hits"] += result is not None

    wrap(ViewServer, "serve", "serving.serve", after=serve_after)
    wrap(ViewServer, "register", "serving.register")

    def maintain_before(args, _kwargs):
        stats = args[0].stats
        return (stats.views_maintained, stats.views_skipped, stats.incremental_choices)

    def maintain_after(entry, args, _kwargs, _result, context):
        stats = args[0].stats
        entry.counts["maintained"] += stats.views_maintained - context[0]
        entry.counts["skipped"] += stats.views_skipped - context[1]
        entry.counts["incremental"] += stats.incremental_choices - context[2]

    # The server subscribes this bound method when it is constructed,
    # so the traced set-up must build its ViewServer after install().
    wrap(ViewServer, "_on_updategram", "serving.maintain",
         before=maintain_before, after=maintain_after)

    # storage
    wrap(PeerLog, "append_gram", "storage.wal_append")
    wrap(PeerLog, "snapshot", "storage.snapshot")

    def bytes_after(entry, _args, _kwargs, written, _context):
        entry.counts["bytes"] += written

    wrap(WriteAheadLog, "append", "storage.wal_write", after=bytes_after)
    wrap(SnapshotFile, "write", "storage.snapshot_write", after=bytes_after)

    # corpus.match, text.similarity, search
    wrap(MetaLearner, "predict_batch", "match.predict")

    def refresh_before(args, _kwargs):
        return args[0]._weights_stale

    def refresh_after(entry, _args, _kwargs, _result, stale):
        entry.counts["refreshes"] += bool(stale)

    wrap(MetaLearner, "_refresh_weights", "match.refresh",
         before=refresh_before, after=refresh_after)

    def blocking_after(entry, args, _kwargs, labels, _context):
        available = args[0].label_count
        entry.counts["available"] += available
        entry.counts["scored"] += available if labels is None else len(labels)

    wrap(CorpusMatchPipeline, "candidate_labels", "match.blocking",
         after=blocking_after)
    wrap(CorpusMatchPipeline, "add_training_source", "match.train")
    wrap("repro.text.similarity", "jaro", "similarity.jaro")
    wrap(BasicStatistics, "similar_schemas", "search.similar_schemas")

    def cache_after(entry, _args, _kwargs, result, _context):
        entry.counts["hits"] += result is not None

    wrap(LRUQueryCache, "get", "search.cache_get", after=cache_after)

    # rdf, mangrove.apps, mangrove.integrity, text.tfidf
    def replace_after(entry, _args, _kwargs, delta, _context):
        entry.counts["changed"] += len(delta)

    wrap(TripleStore, "replace_source", "rdf.replace_source", after=replace_after)
    # Bound at subscription time: the traced set-up attaches the apps
    # and the checker after install().
    wrap(InstantApp, "_on_change", "apps.refresh")
    wrap(ConstraintChecker, "_on_delta", "integrity.check")
    wrap(SemanticSearch, "search", "apps.search")

    def fit_before(args, _kwargs):
        index = args[0]
        return not index._vectors and bool(index._raw_documents)

    def fit_after(entry, _args, _kwargs, _result, refits):
        entry.counts["refits"] += refits

    wrap(CosineIndex, "_ensure_fitted", "tfidf.ensure_fitted",
         before=fit_before, after=fit_after)
    wrap("repro.text.tfidf", "cosine_similarity", "tfidf.cosine")
    profiler.start_gc_clock()


def default_max_rewritings() -> int:
    """The reformulation budget callers get when they pass none."""
    from repro.piazza.reformulation import reformulate

    return inspect.signature(reformulate).parameters["max_rewritings"].default
