"""Tests of the benchmark itself: tiny workloads through the measured code path,
the answer gate, self-time arithmetic, and wrapper removal.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.use_checkout_source()

import detpf.dominance  # noqa: E402,F401  (the patch table names detpf's modules)
import detpf.graded  # noqa: E402,F401


def _per_layer_names() -> list[str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"]]


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_tiny_workload_passes_checks(name):
    ops = workloads.build_ops(name, seed=3, tiny=True)
    res, tracer = run.measure(ops, seconds=0.0, trace=False)
    assert tracer is None
    assert res["failed"] == 0 and res["attempted"] == len(ops)
    assert res["end_to_end"]["error_ratio"][0] == 0.0
    assert res["end_to_end"]["wall_s"][0] > 0
    again, _ = run.measure(workloads.build_ops(name, seed=3, tiny=True), 0.0, False)
    assert again["digest"] == res["digest"]


def test_tiny_traced_run_reports_every_per_layer_metric():
    ops = workloads.build_ops("graded-toolkit", seed=4, tiny=True) + workloads.build_ops(
        "surface-high", seed=4, tiny=True
    )
    res, tracer = run.measure(ops, seconds=0.0, trace=True)
    assert res["failed"] == 0
    assert sorted(res["per_layer"]) == sorted(_per_layer_names())
    layers = res["per_layer"]
    for name in ("dominance.is_dominant", "graded.coker_hilbert", "exactlin.eliminate"):
        assert layers[f"{name}.calls"][0] > 0
    # self times of all layers plus the root's add up to the traced round
    total = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(res["traced_round_walls_s"][0], rel=1e-9)
    # every span was closed and carries the operation that caused it
    assert all(s[2] is not None for s in tracer.spans)
    assert {s[4] for s in tracer.spans if s[0] != spans.ROOT} == set(range(len(ops)))


def test_planted_wrong_expectation_counts_as_error():
    ops = workloads.build_ops("surface-high", seed=5, tiny=True)
    bad = dict(ops[0].expect, cd=ops[0].expect["cd"] + 1)
    ops[0] = dataclasses.replace(ops[0], expect=bad)
    res, _ = run.measure(ops, seconds=0.0, trace=False)
    assert res["failed"] == 1
    assert res["end_to_end"]["error_ratio"][0] == pytest.approx(1 / len(ops))


def test_failed_first_round_does_not_fail_later_rounds():
    rounds = [
        {"records": [None, {"a": 1}], "failed": 1},
        {"records": [{"x": 1}, {"a": 1}], "failed": 0},
        {"records": [{"x": 1}, {"a": 2}], "failed": 0},
    ]
    reference = run.reference_records(rounds)
    assert reference == [{"x": 1}, {"a": 1}]
    # the raise in round 0 and the changed output in round 2
    assert run.tally(rounds, reference) == (6, 2)


def test_monomial_cache_hit_ratio_sees_a_cold_cache():
    from detpf.mpoly import monomial_basis

    ops = workloads.build_ops("small-certs", seed=8, tiny=True)
    monomial_basis.cache_clear()
    cold, _ = run.measure(ops, seconds=0.0, trace=True)
    warm, _ = run.measure(ops, seconds=0.0, trace=True)
    assert cold["per_layer"]["mpoly.monomial_basis.hit_ratio"][0] < 1.0
    assert warm["per_layer"]["mpoly.monomial_basis.hit_ratio"][0] == 1.0
    assert cold["per_layer"]["dominance.attempts_per_op"][0] >= 1.0


def test_expected_codims_match_the_paper():
    cases = {(3, 15): 0, (3, 16): 8, (5, 3): 1, (5, 4): 21, (4, 6): 23, (2, 10): 0}
    assert {rd: workloads.expected_codim(*rd) for rd in cases} == cases
    assert workloads.expected_dominance(3, 16)["verdict"] == "NotDominantByCount"


def test_self_times_on_synthetic_tree():
    #  root [0, 10]
    #    a [1, 6]      b [2, 3], c [4, 5.5] inside a
    #    a [7, 9]      b [7.5, 8] inside
    tree = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 4.0, 5.5, 1, 0],
        ["a", 7.0, 9.0, 0, 1],
        ["b", 7.5, 8.0, 4, 1],
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"root": 3.0, "a": 4.0, "b": 1.5, "c": 1.5})
    assert sum(got.values()) == pytest.approx(10.0)
    assert spans.call_counts(tree) == {"root": 1, "a": 2, "b": 2, "c": 1}


def test_tracer_span_bookkeeping():
    ticks = iter(range(100))
    t = spans.Tracer(clock=lambda: float(next(ticks)))
    assert not t.recording
    root = t.begin(spans.ROOT)
    assert t.recording
    with t.pause():
        assert not t.recording
    t.op_id = 7
    t.end(t.begin("x"))
    t.end(root)
    assert not t.recording
    assert t.spans == [[spans.ROOT, 0.0, 3.0, None, None], ["x", 1.0, 2.0, 0, 7]]


def _patched_objects():
    return {
        (id(owner), attr): vars(owner)[attr]
        for _, owner, attr in spans._patch_targets()
    }


def test_wrappers_removed_after_traced_run():
    before = _patched_objects()
    ops = workloads.build_ops("graded-toolkit", seed=6, tiny=True)[:2]
    run.measure(ops, seconds=0.0, trace=True)
    after = _patched_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_removed_when_an_operation_raises():
    before = _patched_objects()
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with spans.installed(tracer):
            assert _patched_objects() != before
            1 / 0
    assert all(_patched_objects()[k] is v for k, v in before.items())
