"""Tests of the benchmark's own parts; none of them imports ``repro``.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, InputStream, initial_roster, initial_rows  # noqa: E402

EPOCHS = 4


def _inputs(name: str, seed: int):
    spec = WORKLOADS[name]
    return (
        initial_rows(spec, seed),
        initial_roster(spec, seed),
        list(itertools.islice(InputStream(spec, seed), EPOCHS)),
    )


def test_one_seed_reproduces_identical_inputs():
    for name in WORKLOADS:
        assert _inputs(name, 7) == _inputs(name, 7)


def test_two_seeds_give_different_inputs():
    for name, spec in WORKLOADS.items():
        rows_a, roster_a, epochs_a = _inputs(name, 7)
        rows_b, roster_b, epochs_b = _inputs(name, 8)
        assert rows_a != rows_b
        if spec.churn > 0:
            assert roster_a != roster_b
            for a, b in zip(epochs_a, epochs_b):
                assert a.active != b.active
                assert a.appends != b.appends
                assert a.late != b.late


def test_stream_inputs_have_the_specified_shape():
    for name in ("stream-resident", "stream-remote"):
        spec = WORKLOADS[name]
        roster = initial_roster(spec, 3)
        assert len(roster) == round(spec.clients * spec.initial_active_share)
        previous = set(roster)
        for inputs in itertools.islice(InputStream(spec, 3), EPOCHS):
            active = set(inputs.active)
            assert len(active) == len(previous)
            flipped = len(active ^ previous)
            assert flipped == 2 * round(spec.clients * spec.churn / 2)
            assert len(inputs.appends) == round(len(active) * spec.append_share)
            assert {index for index, _ in inputs.appends} <= active
            assert 0 < len(inputs.late) <= 0.05 * len(active)
            assert inputs.deadline
            previous = active


def test_census_has_no_epoch_inputs():
    spec = WORKLOADS["census-inline"]
    rows = initial_rows(spec, 1)
    assert len(rows) == 10_000 and all(len(r) == 1 for r in rows)
    for inputs in itertools.islice(InputStream(spec, 1), EPOCHS):
        assert inputs.active is None and not inputs.appends and not inputs.late
        assert not inputs.deadline


def _fake_deployment(responses_by_query):
    system = SimpleNamespace(responses_log=lambda q: list(responses_by_query[q]))
    return SimpleNamespace(system=system, query_ids=list(responses_by_query))


def _response(client: str, bits: tuple) -> SimpleNamespace:
    share = SimpleNamespace(index=0, payload=bytes(bits) * 3, message_id="random")
    return SimpleNamespace(
        client_id=client, query_id="q", epoch=0, truthful_bits=bits,
        randomized_bits=bits, encrypted=SimpleNamespace(shares=(share,)),
    )


def _report():
    return {"q": SimpleNamespace(window_results=(), late_drops=("client-000001",))}


def test_reference_check_flags_a_tampered_response():
    responses = {"q": [_response("client-000000", (1, 0, 1))]}
    clean = reference.OutputLedger(_fake_deployment(responses))
    copy = reference.OutputLedger(_fake_deployment(responses))
    tampered = reference.OutputLedger(_fake_deployment(responses), tamper_epoch=0)
    for ledger in (clean, copy, tampered):
        ledger.record(0, _report())
    assert reference.compare(clean.digests, copy.digests) == []
    assert reference.compare(clean.digests, tampered.digests) == [0]


def test_reference_check_flags_a_missing_epoch():
    assert reference.compare({0: "a", 1: "b"}, {0: "a"}) == [1]


def test_tail_reports_max_below_twenty_samples():
    value, label = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and "max" in label
    walls = [float(i) for i in range(1, 41)]
    value, label = run.tail(walls)
    assert value == 30.0  # ten samples (31..40) lie beyond it
    assert sum(1 for w in walls if w > value) == 10
    assert "p75.0 of 40" in label


def test_calibrator_times_the_kernel_in_a_helper_process():
    calibrator = calibration.Calibrator()
    try:
        samples = [calibrator.sample(), calibrator.sample()]
    finally:
        calibrator.close()
    assert all(sample > 0 for sample in samples)
    assert calibration.speed([calibration.REFERENCE_S] * 3) == 1.0
    assert calibration.speed([2 * calibration.REFERENCE_S]) == 0.5


def test_verdicts_follow_the_pairing_rule():
    base = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1) == "within-bound"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"


def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as handle:
        definitions = json.load(handle)
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in benchmark["workloads"])
    gated = {k: d for k, d in definitions["end_to_end"].items() if d["in_benchmark_json"]}
    assert [m["name"] for m in benchmark["end_to_end"]] == list(gated)
    for metric in benchmark["end_to_end"]:
        definition = gated[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            definition["unit"], definition["better"], definition["bound"])
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [m["name"] for m in benchmark["per_layer"]] == list(definitions["per_layer"])
    for metric in benchmark["per_layer"]:
        definition = definitions["per_layer"][metric["name"]]
        assert (metric["unit"], metric["better"]) == (definition["unit"], definition["better"])
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
