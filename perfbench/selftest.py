"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is emitted for
every workload, that a wrong answer injected into the oracle comparison
is counted as a failure, that the traced run's wrappers charge no more
time than the operations took, and that the
benchmark refuses to run without the program's sources.  The program
itself is not touched.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _measure(workload: str, trace: int, tamper=None):
    args = argparse.Namespace(workload=workload, seed=3, seconds=60.0,
                              trace=trace, tiny=True)
    return run.measure(args, tamper=tamper)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result, _report = _measure(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        for name in ("ops_per_s", "read_p50_ms", "write_p50_ms", "setup_s"):
            assert result["metrics"][name]["value"] > 0


def _wrong_answers(index, output):
    """Add a tuple no query can produce to every set-valued answer."""
    bogus = ("injected-wrong-answer",)
    if isinstance(output, set):
        return output | {bogus}
    if hasattr(output, "answers"):  # ExecutionStats of a served read
        output.answers = set(output.answers) | {bogus}
    return output


@pytest.mark.parametrize("workload", ["pdms_query", "pdms_serve"])
def test_injected_wrong_answer_is_counted(workload):
    result, report = _measure(workload, 0, tamper=_wrong_answers)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["fail_ratio"] == result["failed"] / result["attempted"]


def test_truncated_reformulation_is_counted(monkeypatch):
    # A depth of 1 cuts every query's reformulation short; the oracle
    # answers with the same options, so only the completeness check
    # can fail these reads.
    monkeypatch.setitem(WORKLOADS["pdms_query"].TINY, "max_depth", 1)
    result, _report = _measure("pdms_query", 0)
    assert result["failed"] >= 1 and not result["correct"]


def test_injected_wrong_search_result_is_counted():
    from repro.mangrove.apps import SearchResult

    def extra_hit(index, output):
        # Step 0's search (op 1) is compared with a fresh rebuild.
        return output + [SearchResult("injected", 0.0, None)] if index == 1 else output

    result, _report = _measure("mangrove_publish", 0, tamper=extra_hit)
    assert result["failed"] >= 1 and not result["correct"]


def test_dropped_correspondence_is_counted():
    from repro.corpus.match.base import MatchResult

    def drop_one(index, output):
        return MatchResult(output.correspondences[1:]) if index == 0 else output

    result, _report = _measure("corpus_match", 0, tamper=drop_one)
    assert result["failed"] >= 1 and not result["correct"]


def test_wrong_labels_fail_the_f1_oracle():
    import dataclasses

    from repro.corpus.match.base import MatchResult

    def rotate_targets(index, output):
        # Every label stays a valid mediated label, so only the F1
        # oracle at the end of the run can see the answers are wrong.
        if not isinstance(output, MatchResult):  # a feedback write
            return output
        targets = [c.target for c in output.correspondences]
        targets = targets[1:] + targets[:1]
        return MatchResult([dataclasses.replace(c, target=t)
                            for c, t in zip(output.correspondences, targets)])

    result, report = _measure("corpus_match", 0, tamper=rotate_targets)
    assert report["checks"]["f1"] < WORKLOADS["corpus_match"].TINY["f1_floor"]
    assert result["failed"] >= 1 and not result["correct"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrappers_never_exceed_operation_time(workload):
    # The wrappers' self times plus the unattributed remainder make up
    # trace.op_ms by construction; what can go wrong is a wrapper
    # charging time outside the timed operations, which would make the
    # remainder negative.
    result, report = _measure(workload, 1)
    assert report["breakdown"]
    assert result["metrics"]["trace.unattributed_ms_per_op"]["value"] >= 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pdms_query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
