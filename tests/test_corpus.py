import dataclasses
import json
import logging
from fractions import Fraction

import pytest

from unicusp.cli import main
from unicusp.corpus import (
    BASIS_ELEMENTARY,
    CORPUS,
    CORPUS_SCHEMA,
    CURVES,
    DEFAULT_PARAMS,
    PAIRS,
    REFERENCE_FORMULAS,
    CorpusError,
    ExpectedFact,
    analysis,
    check_fact,
    check_pair,
    curve_by_name,
    entry,
    load_corpus,
    param_set,
    run_corpus,
    self_checks,
)


def corpus_to_json() -> dict:
    """The built-in corpus in the on-disk format (tuples dump as lists)."""
    return {
        "schema": CORPUS_SCHEMA,
        "entries": [dataclasses.asdict(e) for e in CORPUS],
        "pairs": [dataclasses.asdict(p) for p in PAIRS],
    }


def test_param_set_labels_and_values():
    ps = param_set("2/3", -1, 0)
    assert ps.a == Fraction(2, 3) and ps.b == -1 and ps.c == 0
    assert ps.label == "a=2/3,b=-1,c=0"
    assert ps.as_json() == {"a": "2/3", "b": "-1", "c": "0"}


def test_default_params_are_two_distinct_points():
    assert len(DEFAULT_PARAMS) == 2
    assert DEFAULT_PARAMS[0] != DEFAULT_PARAMS[1]


def test_entry_lookup():
    e = entry("rational-quintic")
    assert e.name == "rational-quintic"
    assert e.facts
    with pytest.raises(CorpusError, match="no corpus entry"):
        entry("sextic")


def test_every_expectation_names_a_registered_curve():
    for e in CORPUS:
        assert e.name in CURVES
    for p in PAIRS:
        assert p.left in CURVES and p.right in CURVES
    for name in REFERENCE_FORMULAS:
        assert name in CURVES


def test_curve_by_name_unknown():
    with pytest.raises(CorpusError, match="no corpus curve"):
        curve_by_name("hyperbola", param_set())


def test_curve_cache_returns_same_object():
    ps = param_set()
    assert curve_by_name("conic", ps) is curve_by_name("conic", ps)


def test_analysis_smooth_branch():
    data = analysis("conic", param_set())
    assert data["smooth"] is True
    assert data["genus"] == 0
    assert "verdict" not in data


def test_analysis_weierstrass_cubic_is_smooth_elliptic():
    data = analysis("weierstrass-cubic", param_set())
    assert data["smooth"] is True
    assert data["genus"] == 1


def test_check_fact_flags_a_corrupted_value():
    bad = ExpectedFact("degree", 6, BASIS_ELEMENTARY)
    res = check_fact("line-x", bad, param_set())
    assert not res.ok
    assert res.expected == "6" and res.got == "1"
    j = res.as_json()
    assert set(j) == {"entry", "params", "fact", "expected", "got", "ok"}


def test_cusp_fact_fails_on_a_node(tmp_path, capsys):
    # the node cubic's one singular point is no cusp, so a cusp fact placing
    # one there fails; the singular-point fact on the same point holds
    ps = DEFAULT_PARAMS[0]
    res = check_fact("node-cubic", ExpectedFact("cusp", "contact", "hand-check"), ps)
    assert not res.ok and res.got == "None"
    assert check_fact("node-cubic", ExpectedFact("singular-point", "contact", "hand-check"), ps).ok
    doc = {
        "schema": CORPUS_SCHEMA,
        "entries": [{"name": "node-cubic", "facts": [{"key": "cusp", "value": "contact"}]}],
    }
    path = tmp_path / "node-cusp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify-corpus", str(path)]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL node-cubic" in out and " cusp: expected " in out


def test_check_pair_reports_cycle_strings():
    res = check_pair(PAIRS[0], param_set())
    assert res.ok
    assert res.fact == "intersection-cycle"
    assert "residual" in res.expected


def test_self_checks_deterministic_and_green():
    a = [r.as_json() for r in self_checks(seed=7)]
    b = [r.as_json() for r in self_checks(seed=7)]
    assert a == b
    assert all(r["ok"] for r in a)
    assert len(a) == 10


def test_run_corpus_with_no_expectations_runs_only_self_checks():
    results = run_corpus(entries=(), pairs=(), seed=5)
    assert len(results) == 10
    assert {r.entry for r in results} == {"self-check"}


def test_run_corpus_subset():
    results = run_corpus(entries=(entry("line-x"),), pairs=())
    assert len(results) == 2 * len(entry("line-x").facts)
    assert {r.entry for r in results} == {"line-x"}
    assert all(r.ok for r in results)


def test_full_corpus_is_green():
    # the heavyweight end-to-end check: every recorded fact about every
    # corpus curve, at both parameter points, plus the seeded spot checks
    results = run_corpus(seed=20260817)
    failures = [r for r in results if not r.ok]
    assert failures == []
    expected_count = (
        2 * sum(len(e.facts) for e in CORPUS) + 2 * len(PAIRS) + 10
    )
    assert len(results) == expected_count
    assert {r.entry for r in results} >= {e.name for e in CORPUS}


def test_corpus_file_round_trip(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus_to_json()), encoding="utf-8")
    entries, pairs = load_corpus(str(path))
    assert entries == CORPUS
    assert pairs == PAIRS


def test_load_corpus_rejects_unknown_curve(tmp_path):
    doc = {
        "schema": 1,
        "entries": [{"name": "folium", "facts": []}],
        "pairs": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CorpusError, match="unknown curve 'folium'"):
        load_corpus(str(path))


def test_load_corpus_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": 0, "entries": []}), encoding="utf-8")
    with pytest.raises(CorpusError, match="schema"):
        load_corpus(str(path))


def test_load_corpus_rejects_unreadable_file(tmp_path):
    path = tmp_path / "garbled.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorpusError, match="cannot read"):
        load_corpus(str(path))
    with pytest.raises(CorpusError, match="cannot read"):
        load_corpus(str(tmp_path / "missing.json"))


def test_load_corpus_warns_when_empty(tmp_path, caplog):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema": 1, "entries": [], "pairs": []}), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="unicusp.corpus"):
        entries, pairs = load_corpus(str(path))
    assert entries == () and pairs == ()
    assert any("no expectations" in rec.message for rec in caplog.records)


def test_loaded_expectations_can_be_run(tmp_path):
    doc = {
        "schema": 1,
        "entries": [
            {
                "name": "node-cubic",
                "summary": "just the degree",
                "facts": [{"key": "degree", "value": 3, "basis": "file"}],
            }
        ],
        "pairs": [
            {"left": "line-x", "right": "line-y", "cycle": [["corner-z", 1]]}
        ],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    entries, pairs = load_corpus(str(path))
    results = run_corpus(entries=entries, pairs=pairs)
    # one fact and one pair, each at both DEFAULT_PARAMS points
    assert [r.ok for r in results] == [True] * 4
