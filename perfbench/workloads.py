"""The four benchmark workloads, their inputs and their oracles.

Each workload builds its inputs from a seed, sets the program up
through its public API and then yields a fixed, seeded sequence of
:class:`Op` objects.  The runner times only ``Op.run``; everything else
in the ``operations`` generator (input edits, checkpoint oracles) runs
between operations, outside the timed calls.

Failure accounting: an operation fails if it raises, if its cheap
per-operation ``check`` rejects the output, or if a later oracle finds
its output wrong (``failed_ops``).  Whole-state oracles that cannot be
pinned on one operation (recovery, app rows) add to ``state_failures``.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.bench import corpus_match_prf
from repro.corpus.match import CorpusMatchPipeline
from repro.datasets.html_gen import (
    edit_page,
    generate_department_site,
    generate_edit_stream,
)
from repro.datasets.pdms_gen import (
    random_tree_pdms,
    synthetic_matching_workload,
    update_stream,
)
from repro.mangrove import (
    ConstraintChecker,
    DepartmentCalendar,
    PaperDatabase,
    PhoneDirectory,
    Publisher,
    SemanticSearch,
    WhoIsWho,
)
from repro.piazza import DistributedExecutor, ViewServer
from repro.piazza.datalog import evaluate_union_brute_force
from repro.piazza.peer import Peer
from repro.rdf import TripleStore
from repro.storage import PeerLog

import tracing

REFERENCE_RELATIONS = ("course", "instructor", "department", "ta")


@dataclass
class Op:
    """One timed operation: ``run()`` is the program call under test.

    ``check(output)`` is the cheap per-operation correctness check and
    ``keep(output)`` hands the output to a later, untimed oracle.
    """

    kind: str  # "read" or "write"
    run: object
    check: object = None
    keep: object = None


class Workload:
    """Shared state and bookkeeping; subclasses build and run it.

    ``SIZES`` are the measured sizes and ``TINY`` the self-test's.
    """

    name = ""
    SIZES: dict = {}
    TINY: dict = {}

    def __init__(self, seed: int, sizes: dict, workdir: Path):  # noqa: D107
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.failed_ops: set = set()
        self.state_failures: list = []
        # Per-operation facts the per-layer metrics need that no wrapper
        # sees (view keys per read, user bytes per write).
        self.counts: dict = {}
        self.report: dict = {}

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a per-operation fact."""
        self.counts[name] = self.counts.get(name, 0.0) + value

    def setup(self) -> None:  # pragma: no cover - abstract
        """Generate inputs, build indexes, train, make one warm-up call."""
        raise NotImplementedError

    def operations(self):  # pragma: no cover - abstract
        """Yield the timed operations in their seeded order."""
        raise NotImplementedError

    def finish(self, completed: int) -> None:
        """Run the expensive end-of-run oracles over ``completed`` ops."""

    def close(self) -> None:
        """Release files the workload opened."""


def _positions(schema: dict, gold: dict, relation: str) -> tuple[str, list[str]]:
    """A peer's name for a reference relation and its attribute list."""
    local = gold[relation]
    return local, schema[local]


def _single_query(peer: str, relation: str, attributes: list[str], column: int) -> str:
    variables = [f"?a{i}" for i in range(len(attributes))]
    return f"q({variables[column]}) :- {peer}.{relation}({', '.join(variables)})"


def _join_query(peer: str, schema: dict, gold: dict) -> str:
    """course ⋈ instructor on the course's instructor name."""
    course, course_attrs = _positions(schema, gold, "course")
    instructor, instructor_attrs = _positions(schema, gold, "instructor")

    def column(attributes, reference):
        return attributes.index(gold[reference].split(".", 1)[1])

    course_vars = [f"?c{i}" for i in range(len(course_attrs))]
    instructor_vars = [f"?i{i}" for i in range(len(instructor_attrs))]
    instructor_vars[column(instructor_attrs, "instructor.name")] = course_vars[
        column(course_attrs, "course.instructor")
    ]
    title = course_vars[column(course_attrs, "course.title")]
    email = instructor_vars[column(instructor_attrs, "instructor.email")]
    return (
        f"q({title}, {email}) :- {peer}.{course}({', '.join(course_vars)}), "
        f"{peer}.{instructor}({', '.join(instructor_vars)})"
    )


def _data_peers(pdms) -> list[str]:
    return sorted(
        (name for name, peer in pdms.peers.items() if peer.stored),
        key=lambda name: int(name[1:]),
    )


class PdmsQuery(Workload):
    """Ad-hoc queries over a random-tree PDMS, reformulated per call.

    Per data peer: one single-relation query per relation and one
    course ⋈ instructor join, shuffled in blocks of five so any prefix
    keeps the 4:1 mix.  Each read is followed by one small updategram
    at a random data peer (the write), so answers change as the run
    goes; the oracle replays the same stream on a fresh network.
    """

    name = "pdms_query"
    SIZES = {"data_peers": 33, "schema_only_peers": 6, "courses": 8,
             "join_oracles": 3, "max_depth": 40}
    TINY = {"data_peers": 4, "schema_only_peers": 1, "courses": 3,
            "join_oracles": 1, "max_depth": 40}

    def _network(self):
        return random_tree_pdms(
            self.sizes["data_peers"], seed=self.seed,
            courses=self.sizes["courses"],
            dataless_peers=self.sizes["schema_only_peers"],
        )

    def _plan(self, pdms):
        """The seeded read sequence and the write stream."""
        rng = random.Random(self.seed)
        golds = pdms.generator_info["golds"]
        peers = _data_peers(pdms)
        rng.shuffle(peers)
        reads = []
        for peer in peers:
            schema, gold = pdms.peers[peer].schema, golds[peer]
            block = [
                ("single", peer, _single_query(peer, *_positions(schema, gold, rel), 1))
                for rel in REFERENCE_RELATIONS
            ]
            block.insert(rng.randrange(len(block) + 1),
                         ("join", peer, _join_query(peer, schema, gold)))
            reads.extend(block)
        writes = update_stream(pdms, len(reads), seed=self.seed + 1,
                               inserts_per_relation=2, deletes_per_relation=1)
        return reads, writes

    def setup(self) -> None:
        self.pdms = self._network()
        self.pdms.mapping_index()
        self.executor = DistributedExecutor(self.pdms)
        self.reads, self.writes = self._plan(self.pdms)
        # The default max_depth (16) truncates joins on deep trees; this
        # depth reaches every peer, so every answer is complete.
        self.options = {"max_depth": self.sizes["max_depth"]}
        # Warm-up: a projection the timed reads never ask for.
        peer = self.reads[0][1]
        schema, gold = self.pdms.peers[peer].schema, self.pdms.generator_info["golds"][peer]
        self.executor.execute(
            _single_query(peer, *_positions(schema, gold, "department"), 0), peer,
            reformulation_options=self.options,
        )
        self.answers: list = []

    def operations(self):
        for (kind, peer, query), (owner, gram) in zip(self.reads, self.writes):
            index = len(self.answers)
            yield Op(
                "read",
                lambda: self.executor.execute(
                    query, peer, reformulation_options=self.options
                ).answers,
                lambda answers: isinstance(answers, set),
                self.answers.append,
            )
            if len(self.answers) == index:  # the read raised
                self.answers.append(None)
            yield Op(
                "write",
                lambda: self.pdms.apply_updategram(owner, gram),
                lambda changed, gram=gram: changed == gram.size(),
            )

    def finish(self, completed: int) -> None:
        """Replay the run on a fresh network with the unindexed oracles.

        Every query's reformulation is also checked to be complete: not
        cut by ``max_depth`` and below ``max_rewritings`` before
        minimization.  Reformulation depends only on the mappings and the
        stored relations' names, not on the data, so the fresh network
        gives the plan the timed read used.
        """
        pdms = self._network()
        cap = tracing.default_max_rewritings()
        rng = random.Random(self.seed + 2)
        joins = [i for i, (kind, _, _) in enumerate(self.reads[: len(self.answers)])
                 if kind == "join"]
        checked_joins = set(rng.sample(joins, min(len(joins), self.sizes["join_oracles"])))
        for index, answers in enumerate(self.answers):
            kind, _peer, query = self.reads[index]
            plan = pdms.reformulate(query, minimize=False, **self.options)
            if plan.depth_limit_hit or len(plan.rewritings) >= cap:
                self.failed_ops.add(2 * index)
            if kind == "single":
                expected = pdms.answer_brute_force(query, **self.options)
            elif index in checked_joins:
                rewritings = pdms.reformulate(query, indexed=False, **self.options).rewritings
                expected = evaluate_union_brute_force(rewritings, pdms.instance())
            else:
                expected = answers
            if answers != expected:
                self.failed_ops.add(2 * index)
            if 2 * index + 1 < completed:
                owner, gram = self.writes[index]
                pdms.apply_updategram(owner, gram)
        self.report["oracle"] = (
            f"{sum(k == 'single' for k, _, _ in self.reads[: len(self.answers)])} "
            f"single reads and {len(checked_joins)} joins checked against the "
            "unindexed brute-force path; every reformulation checked complete"
        )


class PdmsServe(Workload):
    """Registered queries served from views under an updategram stream.

    Every data peer has a ``PeerLog`` WAL (``sync=False``: each record
    is flushed to the OS, not fsynced; a snapshot every
    ``snapshot_every`` grams of a peer).  The stream goes to a seeded
    set of ``hot_peers`` data peers, so snapshots happen at a rate of a
    few per hundred writes.  After each gram every registered query is
    read once.
    """

    name = "pdms_serve"
    SIZES = {"data_peers": 200, "schema_only_peers": 40, "courses": 8,
             "queries": 12, "grams": 1800, "hot_peers": 25,
             "snapshot_every": 32, "checkpoint_every": 300, "max_depth": 40}
    TINY = {"data_peers": 8, "schema_only_peers": 2, "courses": 3,
            "queries": 4, "grams": 12, "hot_peers": 4,
            "snapshot_every": 2, "checkpoint_every": 5, "max_depth": 40}

    def setup(self) -> None:
        sizes = self.sizes
        self.logdir = Path(self.workdir) / "peerlogs"
        shutil.rmtree(self.logdir, ignore_errors=True)
        self.pdms = random_tree_pdms(
            sizes["data_peers"], seed=self.seed, courses=sizes["courses"],
            dataless_peers=sizes["schema_only_peers"],
        )
        self.logs = {}
        for name in _data_peers(self.pdms):
            peer = self.pdms.peers[name]
            log = PeerLog(self.logdir, name, snapshot_every=sizes["snapshot_every"])
            peer.attach_log(log)
            log.snapshot(peer)  # baseline: recovery = snapshot + WAL tail
            self.logs[name] = log
        self.pdms.mapping_index()
        golds = self.pdms.generator_info["golds"]
        peers = _data_peers(self.pdms)
        self.queries = []
        for k in range(sizes["queries"]):
            peer = peers[(k * len(peers)) // sizes["queries"]]
            relation = REFERENCE_RELATIONS[k % len(REFERENCE_RELATIONS)]
            schema = self.pdms.peers[peer].schema
            text = _single_query(peer, *_positions(schema, golds[peer], relation), 1)
            self.queries.append((peer, self.pdms.query(text)))
        self.executor = DistributedExecutor(self.pdms)
        self.options = {"max_depth": sizes["max_depth"]}
        self.server = ViewServer(self.executor, reformulation_options=self.options)
        self.view_keys = [
            len(self.server.register(peer, query).view_keys)
            for peer, query in self.queries
        ]
        hot = random.Random(self.seed).sample(peers, min(sizes["hot_peers"], len(peers)))
        self.stream = update_stream(
            self.pdms, sizes["grams"], seed=self.seed + 1,
            inserts_per_relation=2, deletes_per_relation=1,
            relations_per_step=2, peers=sorted(hot),
        )
        peer, query = self.queries[0]
        self.executor.execute(query, peer, views=self.server)  # warm-up

    def _checkpoint(self, reads: list) -> None:
        """Served answers of the latest reads == a fresh reformulation."""
        for op_index, query, answers in reads:
            if answers != self.pdms.answer(query, **self.options):
                self.failed_ops.add(op_index)

    def operations(self):
        op_index = 0
        for step, (owner, gram) in enumerate(self.stream):
            yield Op(
                "write",
                lambda: self.pdms.apply_updategram(owner, gram),
                lambda changed, gram=gram: changed == gram.size(),
            )
            self.count("user_bytes", _gram_bytes(gram))
            op_index += 1
            latest = []
            for (peer, query), keys in zip(self.queries, self.view_keys):
                yield Op(
                    "read",
                    lambda: self.executor.execute(query, peer, views=self.server),
                    lambda stats: stats.view_hits == 1 and stats.messages == 0,
                    lambda stats: latest.append((op_index, query, stats.answers)),
                )
                self.count("view_keys", keys)
                op_index += 1
            last = step + 1 == len(self.stream)
            if last or (step + 1) % self.sizes["checkpoint_every"] == 0:
                self._checkpoint(latest)

    def finish(self, completed: int) -> None:
        """Complete plans, final served answers, peers recovered from disk."""
        cap = tracing.default_max_rewritings()
        for peer, query in self.queries:
            plan = self.pdms.reformulate(query, minimize=False, **self.options)
            if plan.depth_limit_hit or len(plan.rewritings) >= cap:
                self.state_failures.append(f"registered query at {peer} is truncated")
            if self.server.serve(query, peer) != self.pdms.answer(query, **self.options):
                self.state_failures.append(f"final served answer of {peer} differs")
        recovered = 0
        for name, log in self.logs.items():
            log.close()
            reader = PeerLog(self.logdir, name)
            try:
                peer = Peer.restore(name, reader)
            finally:
                reader.close()
            live = self.pdms.peers[name]
            if peer.data != live.data or peer.epoch != live.epoch:
                self.state_failures.append(f"peer {name} recovered differently")
            recovered += 1
        self.report["oracle"] = (
            f"served answers checked against PDMS.answer every "
            f"{self.sizes['checkpoint_every']} grams and at the end; "
            f"{recovered} peers recovered from their logs and compared"
        )

    def close(self) -> None:
        for log in getattr(self, "logs", {}).values():
            log.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.close()


def _gram_bytes(gram) -> int:
    """Bytes of user data in a gram: the UTF-8 text of its row values."""
    total = 0
    for rows in list(gram.inserts.values()) + list(gram.deletes.values()):
        for row in rows:
            total += sum(len(str(value).encode()) for value in row)
    return total


class CorpusMatch(Workload):
    """LSD-style matching with a feedback loop.

    Each read matches one incoming schema; after every
    ``feedback_every``-th read its gold mapping is fed back as a new
    training source (the write), so the next read pays the deferred
    stacking refresh.
    """

    name = "corpus_match"
    SIZES = {"reads": 130, "domains": 6, "training_per_domain": 2,
             "feedback_every": 5, "parity_samples": 2, "f1_floor": 0.8}
    TINY = {"reads": 6, "domains": 2, "training_per_domain": 1,
            "feedback_every": 3, "parity_samples": 1, "f1_floor": 0.5}

    def setup(self) -> None:
        sizes = self.sizes
        self.workload = synthetic_matching_workload(
            count=sizes["reads"] + 1, seed=self.seed, domains=sizes["domains"],
            training_per_domain=sizes["training_per_domain"],
        )
        self.pipeline = CorpusMatchPipeline(self.workload.mediated)
        for schema, mapping in self.workload.training:
            self.pipeline.add_training_source(schema, mapping)
        schemas = list(self.workload.corpus.schemas.values())
        self.pipeline.match_source(schemas[0])  # warm-up
        self.incoming = schemas[1:]
        self.results: dict = {}
        self.labels = set(self.workload.mediated.attribute_paths())

    def operations(self):
        every = self.sizes["feedback_every"]
        for position, schema in enumerate(self.incoming, 1):
            gold = self.workload.gold[schema.name]

            def check(result, gold=gold):
                sources = [c.source for c in result]
                return (sorted(sources) == sorted(gold)
                        and all(c.target in self.labels for c in result))

            yield Op(
                "read",
                lambda: self.pipeline.match_source(schema),
                check,
                lambda result, name=schema.name: self.results.__setitem__(name, result),
            )
            if position % every == 0:
                yield Op(
                    "write",
                    lambda: self.pipeline.add_training_source(schema, gold),
                    lambda added, gold=gold: added == len(gold),
                )

    def finish(self, completed: int) -> None:
        """P/R/F1 against the generator's gold, plus a parity sample."""
        if not self.results:
            return
        gold = {name: self.workload.gold[name] for name in self.results}
        prf = corpus_match_prf(self.results, gold)
        self.report["precision"] = prf["precision"]
        self.report["recall"] = prf["recall"]
        self.report["f1"] = prf["f1"]
        if prf["f1"] < self.sizes["f1_floor"]:
            self.state_failures.append(
                f"F1 {prf['f1']:.3f} below floor {self.sizes['f1_floor']}"
            )
        rng = random.Random(self.seed + 2)
        matched = [s for s in self.incoming if s.name in self.results]
        sample = rng.sample(matched, min(len(matched), self.sizes["parity_samples"]))
        for schema in sample:
            batched = self.pipeline.match_source(schema, blocking=False)
            brute = self.pipeline.match_source_brute_force(schema)
            if [(c.source, c.target, c.score) for c in batched] != [
                (c.source, c.target, c.score) for c in brute
            ]:
                self.state_failures.append(f"{schema.name}: batched != brute force")
        self.report["oracle"] = (
            f"P/R/F1 against generator gold (floor {self.sizes['f1_floor']}); "
            f"{len(sample)} schemas checked bitwise against match_source_brute_force"
        )


def _checker() -> ConstraintChecker:
    return ConstraintChecker(
        single_valued={"person.phone", "course.time"},
        required={"course": {"course.title", "course.time"}},
        referential={"course.instructor": "person"},
    )


def _fresh_search(store: TripleStore) -> SemanticSearch:
    """A ``SemanticSearch`` rebuilt from the whole store, unsubscribed.

    The constructor would subscribe it to every later publish; the
    oracle only needs the full rebuild (``build_rows``) of this moment.
    """
    search = SemanticSearch.__new__(SemanticSearch)
    search.store = store
    search.rows = search.build_rows()
    return search


def _hits(results) -> list:
    return [(r.subject, r.score, r.type_name) for r in results]


class MangrovePublish(Workload):
    """Edit-and-publish one page, then run one keyword search.

    The five instant apps and the constraint checker are attached in
    set-up; every ``oracle_every``-th search is compared with a freshly
    built ``SemanticSearch`` over the same store.
    """

    name = "mangrove_publish"
    SIZES = {"pages": 600, "steps": 300, "oracle_every": 25}
    TINY = {"pages": 20, "steps": 6, "oracle_every": 3}

    def setup(self) -> None:
        pages = self.sizes["pages"]
        courses = int(pages * 0.6)
        self.pages = generate_department_site(
            "http://cs.edu", courses, pages - courses, seed=self.seed
        )
        self.stream = generate_edit_stream(self.pages, self.sizes["steps"],
                                           seed=self.seed + 1)
        # One seeded word of the site's text per search: many distinct
        # keywords give a smooth cost distribution, so the median read
        # does not sit on the boundary between a few keywords' costs.
        words = sorted({
            word for _document, fields in self.pages for value in fields.values()
            for word in str(value).split() if word.isalpha() and len(word) > 3
        })
        rng = random.Random(self.seed + 3)
        self.keywords = [rng.choice(words) for _ in self.stream]
        self.store = TripleStore()
        self.publisher = Publisher(self.store)
        for document, _fields in self.pages:
            self.publisher.publish(document)
        self.apps = [cls(self.store) for cls in (
            DepartmentCalendar, WhoIsWho, PhoneDirectory, PaperDatabase,
        )]
        self.search = SemanticSearch(self.store)
        self.checker = _checker()
        self.checker.attach(self.store)
        self.deltas = 0
        self.store.subscribe_delta(self._on_delta)
        self.search.search(self.keywords[0])  # warm-up

    def _on_delta(self, _store, _delta) -> None:
        self.deltas += 1

    def operations(self):
        for step, (at, field_name, value) in enumerate(self.stream):
            document, fields = self.pages[at]
            edit_page(document, fields, field_name, value)
            before = self.deltas
            yield Op(
                "write",
                lambda: self.publisher.publish(document),
                lambda triples, before=before: triples > 0 and self.deltas == before + 1,
            )
            keyword = self.keywords[step]
            kept = []
            op_index = 2 * step + 1
            yield Op(
                "read",
                lambda: self.search.search(keyword),
                lambda results: all(
                    a.score >= b.score for a, b in zip(results, results[1:])
                ),
                kept.append,
            )
            if kept and step % self.sizes["oracle_every"] == 0:
                if _hits(kept[0]) != _hits(_fresh_search(self.store).search(keyword)):
                    self.failed_ops.add(op_index)

    def finish(self, completed: int) -> None:
        """App rows and violations against their full-rebuild oracles."""
        for app in self.apps:
            if app.rows != app.build_rows():
                self.state_failures.append(f"{type(app).__name__} rows differ")
        if self.search.rows != _fresh_search(self.store).rows:
            self.state_failures.append("SemanticSearch rows differ")
        if self.checker.violations() != self.checker.check_brute_force(self.store):
            self.state_failures.append("violations differ from check_brute_force")
        self.report["oracle"] = (
            "app rows vs build_rows(), violations vs check_brute_force(), "
            f"every {self.sizes['oracle_every']}th search vs a fresh SemanticSearch"
        )


WORKLOADS = {cls.name: cls for cls in (PdmsQuery, PdmsServe, CorpusMatch, MangrovePublish)}
