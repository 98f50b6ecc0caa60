"""Forced failures: break each suite's theorem on exactly one sample.

The break is a monkeypatch on `modalfib.fingroupoids`, so these tests
also pin that the suites reach the library through that module, where a
wrapper sees every call.
"""

import json

import pytest

from modalfib import fingroupoids
from modalfib.cli import main
from modalfib.fingroupoids import group_groupoid, object_inclusion


def break_call(monkeypatch, name, breaker, at=0):
    """Pass the result of the at-th call of fingroupoids.<name> (counting
    from 0) through breaker, and every other call through unchanged."""
    real = getattr(fingroupoids, name)
    calls = []

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(name)
        return breaker(out) if len(calls) == at + 1 else out

    monkeypatch.setattr(fingroupoids, name, wrapped)
    return calls


def run_suite(capsys, sub):
    code = main(["suite", sub, "--samples", "5", "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_nine_way_counts_one_forced_disagreement(monkeypatch, capsys):
    calls = break_call(monkeypatch, "nine_way",
                       lambda rep: dict(rep, agree=not rep["agree"]), at=2)
    code, data = run_suite(capsys, "nine-way")
    assert len(calls) == 5
    assert code == 1
    assert data["disagreements"] == 1
    assert data["connecting_failures"] == 0
    assert data["ok"] is False


def test_compare_modalities_counts_one_forced_violation(monkeypatch,
                                                         capsys):
    calls = break_call(monkeypatch, "compare_modalities",
                       lambda rep: dict(rep, all_hold=not rep["all_hold"]),
                       at=4)
    code, data = run_suite(capsys, "compare-modalities")
    assert len(calls) == 5
    assert code == 1
    assert data["violations"] == 1
    assert data["ok"] is False


def test_closure_counts_one_forced_pullback_violation(monkeypatch, capsys):
    not_a_fibration = object_inclusion(group_groupoid("c2"), "o")
    assert not fingroupoids.classify_trunc(
        not_a_fibration, 0).fibration.is_true
    calls = break_call(monkeypatch, "homotopy_pullback",
                       lambda out: (out[0], out[1], not_a_fibration))
    code, data = run_suite(capsys, "closure")
    assert len(calls) == data["fibrations_seen"] >= 1
    assert code == 1
    assert data["pullback_violations"] == 1
    assert data["composite_violations"] == 0
    assert data["ok"] is False


@pytest.mark.parametrize("sub, lines", [
    ("nine-way", ["10 samples (seed 3)", "disagreements: 0",
                  "connecting-map failures: 0",
                  "gamma equivalence: 2 true, 8 false"]),
    ("closure", ["10 samples (seed 3), 6 fibrations exercised",
                 "pullback violations: 0", "composite violations: 0"]),
    ("compare-modalities", ["10 samples (seed 3)",
                            "implication violations: 0"]),
])
def test_text_reports(sub, lines, capsys):
    assert main(["suite", sub, "--samples", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == lines + ["verdict: pass"]
    assert out[-1].startswith("elapsed: ")
