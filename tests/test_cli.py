import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from unicusp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- analyze -------------------------------------------------------------------


def test_analyze_cuspidal_cubic_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "y^2*z - x^3")
    assert code == 0
    assert "degree 3, genus 0" in out
    assert "singular point (0 : 0 : 1) with multiplicity 2" in out
    assert "cusp multiplicity sequence (2,)" in out
    assert "verdict:" in out


def test_analyze_json_document(capsys):
    code, out, _ = run_cli(capsys, "analyze", "y^2*z - x^3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["timing"] is None
    assert doc["name"] == "curve"
    assert doc["degree"] == 3 and doc["genus"] == 0
    assert doc["unicuspidal"] is True
    assert doc["cusp"] == [0, 0, 1]


def test_analyze_corpus_curve(capsys):
    code, out, _ = run_cli(capsys, "analyze", "corpus:cusp-quartic", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "cusp-quartic"
    assert doc["degree"] == 4
    assert doc["genus"] == 1
    assert doc["verdict"] == "AMS"
    assert doc["multiplicity_sequence"] == [2, 2]


def test_analyze_smooth_curve(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x^2 + y^2 - z^2")
    assert code == 0
    assert "smooth: no singular points" in out


def test_analyze_reducible_curve_is_negative_genus_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "x*y*z")
    assert code == 1
    assert out == ""
    assert err == "error: negative genus: the curve is reducible or the locus is wrong\n"


def test_analyze_reports_an_irrational_component_once(capsys):
    # the eliminants share (x^2 - 2 z^2)^2: the nodes on x = ±sqrt(2) z
    # lie on both lines y = ±sqrt(3) z
    code, out, err = run_cli(capsys, "analyze", "(x^2-2*z^2)*(y^2-3*z^2)")
    assert code == 1
    assert out == ""
    assert err == "error: singular locus has components outside Q: x^2 - 2*z^2\n"


@pytest.mark.parametrize(
    "exc, reason",
    [(MemoryError, "out of memory"), (RecursionError, "maximum recursion depth exceeded")],
)
@pytest.mark.parametrize("command", ["analyze", "transform"])
def test_resource_exhaustion_is_a_one_line_error(capsys, monkeypatch, exc, reason, command):
    from unicusp import cli

    def exhausted(args):
        raise exc()

    monkeypatch.setattr(cli, f"cmd_{command}", exhausted)
    code, out, err = run_cli(capsys, command, "y^2*z - x^3")
    assert code == 1
    assert out == ""
    assert err == f"error: {reason}\n"


HUGE = "x^99999999999999999999 + y^99999999999999999999 + z^99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", HUGE],
        ["intersect", HUGE, "x + y + z"],
        ["intersect", "x + y + z", HUGE],
        ["resolve", HUGE, "--point", "0,0,1"],
        ["transform", HUGE],
        ["fiber", HUGE, "--case", "on"],
    ],
)
def test_huge_exponent_is_a_one_line_error(capsys, argv):
    # The degree cannot index a list: this fails before anything is allocated.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: number too large: ") and err.count("\n") == 1


def test_analyze_takes_no_point(capsys):
    # analyze reads no --point: like every flag its command never reads, it
    # is a usage error
    with pytest.raises(SystemExit) as info:
        main(["analyze", "y^2*z - x^3", "--point", "0,0,1"])
    assert info.value.code == 2
    assert "--point" in capsys.readouterr().err


def test_analyze_writes_dot_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "analyze", "y^2*z - x^3", "--dot", str(tmp_path)
    )
    assert code == 0
    dot = tmp_path / "resolution-curve.dot"
    assert dot.exists()
    assert dot.read_text().startswith("graph ")
    assert str(dot) in out


def test_analyze_parse_error_is_usage(capsys):
    code, _, err = run_cli(capsys, "analyze", "x +")
    assert code == 2
    assert "error:" in err and "cannot parse" in err


def test_analyze_unknown_corpus_name_is_usage(capsys):
    code, _, err = run_cli(capsys, "analyze", "corpus:lemniscate")
    assert code == 2
    assert "no corpus curve" in err


def test_bad_params_fragment_is_usage(capsys):
    code, _, err = run_cli(capsys, "analyze", "y^2*z - x^3", "--params", "q=1")
    assert code == 2
    assert "--params" in err
    code, _, err = run_cli(capsys, "analyze", "y^2*z - x^3", "--params", "c=1/0")
    assert code == 2
    assert "bad rational" in err
    # a repeated key is refused, not silently overwritten by its last value
    code, out, err = run_cli(capsys, "analyze", "y^2*z - x^3", "--params", "a=1,c=2, a=2")
    assert (code, out, err) == (2, "", "error: --params sets a twice\n")


def test_an_empty_params_fragment_is_skipped(capsys):
    code, out, _ = run_cli(capsys, "analyze", "y^2*z - x^3", "--params", "a=1,,b=2", "--json")
    assert code == 0
    assert json.loads(out)["params"] == {"a": "1", "b": "2", "c": "0"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["resolve", "y^2*z - x^3", "--point", "1,x,0"], "bad rational in --point: '1,x,0'"),
        (["resolve", "y^2*z - x^3", "--point", "0,0,0"], "(0 : 0 : 0) is not a projective point"),
        (["transform", "y^2*z - x^3", "--map", "x;y;(z"], "cannot parse --map: expected ')' (at position 2)"),
    ],
)
def test_a_bad_point_or_map_is_a_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_params_reach_the_curve_builders(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "corpus:node-cubic", "--params", "c=2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"a": "1", "b": "1", "c": "2"}
    assert doc["degree"] == 3


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-corpus", "--params", "a=5"],
        ["verify-corpus", "--dot", "out"],
        ["intersect", "x*z - y^2", "x", "--dot", "out"],
        ["transform", "y^2*z - x^3", "--dot", "out"],
    ],
)
def test_a_flag_the_command_never_reads_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_json_output_is_reproducible(capsys):
    _, first, _ = run_cli(capsys, "analyze", "x*z - y^2", "--json")
    _, second, _ = run_cli(capsys, "analyze", "x*z - y^2", "--json")
    assert first == second


def test_timing_flag(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x*z - y^2", "--timing")
    assert code == 0
    assert "elapsed:" in out
    code, out, _ = run_cli(capsys, "analyze", "x*z - y^2", "--json", "--timing")
    doc = json.loads(out)
    assert isinstance(doc["timing"], float)


# -- intersect -----------------------------------------------------------------


def test_intersect_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "intersect", "x*z - y^2", "x - z")
    assert code == 0
    assert "(1 : 1 : 1) with local number 1" in out
    assert "(1 : -1 : 1) with local number 1" in out
    assert "located 2 of 2 (residual 0)" in out

    code, out, _ = run_cli(capsys, "intersect", "x*z - y^2", "x", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["bezout_ok"] is True
    assert doc["fully_located"] is True
    assert doc["cycle"]["bezout"] == 2


def test_intersect_shared_component_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "intersect", "x*y", "x*z")
    assert code == 1
    assert "component" in err


# -- resolve -------------------------------------------------------------------


def test_resolve_finds_the_point_itself(capsys):
    code, out, _ = run_cli(capsys, "resolve", "y^2*z - x^3")
    assert code == 0
    assert "resolved curve at (0 : 0 : 1) in 3 blowups" in out
    assert "delta 1" in out
    assert "strict transform square 3" in out
    assert "blowup 3:" in out


def test_resolve_with_explicit_point_and_dot(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "resolve", "y^2*z - x^3", "--point", "0,0,1", "--dot", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "resolution-curve.dot").exists()


def test_resolve_bad_point_is_usage(capsys):
    code, _, err = run_cli(capsys, "resolve", "y^2*z - x^3", "--point", "1,2")
    assert code == 2
    assert "--point" in err


def test_resolve_needs_unique_point(capsys):
    code, _, err = run_cli(capsys, "resolve", "x*y*z")
    assert code == 1
    assert "exactly one singular point" in err


def test_resolve_at_node_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "resolve", "x*y*z", "--point", "0,0,1")
    assert code == 1
    assert "branch" in err


# -- transform -----------------------------------------------------------------


def test_transform_with_builtin_involution(capsys):
    code, out, _ = run_cli(capsys, "transform", "corpus:contact-cubic", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 5
    assert len(doc["map"]) == 3


def test_transform_with_custom_map(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "y^2*z - x^3", "--map", "y;x;z"
    )
    assert code == 0
    assert "degree 3" in out
    assert "x^2*z" in out


def test_transform_squaring_map(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "corpus:weierstrass-cubic",
        "--map",
        "x*z; y*z + x^2; z^2",
        "--exceptional",
        "z",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["degree"] == 4


def test_transform_reports_a_reduced_map_on_stderr():
    # make_map logs the factor it divides out; the CLI prints that on stderr
    # and the stdout stays that of the reduced map (y, z, x).
    proc = _run_module("transform", "corpus:conic", "--map", "x*y;x*z;x*x")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "map: (y, z, x)\nstrict transform of conic has degree 2:\n  x*y - z^2\n"
    assert proc.stderr == "divided out common factor x\n"


def test_transform_map_strips_only_the_curves_it_is_given(capsys):
    # (y*z, x*z, x*y) contracts the lines x, y and z, but --map divides out
    # only the --exceptional curves.  x*y + z^2 pulls back to
    # x*y*(x*y + z^2): x and y appear once, so the repeated-factor refusal
    # never fires and they stay in the image unless they are named.
    argv = ("transform", "x*y+z^2", "--map", "y*z;x*z;x*y")
    assert run_cli(capsys, *argv) == (
        0, "map: (y*z, x*z, x*y)\nstrict transform of curve has degree 4:\n  x^2*y^2 + x*y*z^2\n", ""
    )
    assert run_cli(capsys, *argv, "--exceptional", "x", "--exceptional", "y") == (
        0, "map: (y*z, x*z, x*y)\nstrict transform of curve has degree 2:\n  x*y + z^2\n", ""
    )


def test_transform_without_an_exceptional_curve_is_refused():
    # (x*z, y*z + x^2, z^2) contracts z = 0, and the pullback keeps z as a
    # repeated factor when it is not declared
    proc = _run_module("transform", "corpus:weierstrass-cubic", "--map", "x*z;y*z+x^2;z^2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: strict transform has a repeated factor dividing z: an exceptional curve is missing\n"
    )
    # and the pullback x^2 of the line x under the squaring map
    proc = _run_module("transform", "x", "--map", "x^2;y^2;z^2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: strict transform has a repeated factor dividing x:")


def test_transform_map_needs_three_pieces(capsys):
    code, _, err = run_cli(capsys, "transform", "y^2*z - x^3", "--map", "x;y")
    assert code == 2
    assert "three" in err


def test_transform_of_exceptional_curve_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "transform", "corpus:conic")
    assert code == 1
    assert "exceptional" in err


@pytest.mark.parametrize(
    "curve, plane_map",
    [
        ("corpus:conic", "x;y;0"),
        ("corpus:node-cubic", "x^2;x*y;y^2"),
        ("corpus:node-cubic", "x+y;x+y;z"),
    ],
)
def test_transform_rejects_a_map_onto_a_curve(capsys, curve, plane_map):
    code, out, err = run_cli(capsys, "transform", curve, "--map", plane_map)
    assert (code, out) == (1, "")
    assert err == (
        "error: the Jacobian determinant of the map vanishes: the image is a point or a curve\n"
    )


# -- fiber ---------------------------------------------------------------------


def test_fiber_off_case_finds_completion(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "fiber",
        "corpus:image-quintic",
        "--case",
        "off",
        "--json",
        "--dot",
        str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["budget"] == 1
    assert doc["strict_self_intersection"] == 3
    assert [c["kodaira"] for c in doc["completions"]] == ["I4*"]
    assert (tmp_path / "fiber-image-quintic-part.dot").exists()
    assert (tmp_path / "fiber-image-quintic-0-I4star.dot").exists()


def test_fiber_on_case_reports_no_completion(capsys):
    code, out, _ = run_cli(
        capsys, "fiber", "corpus:image-quintic", "--case", "on"
    )
    assert code == 0
    assert "no completion found" in out


def test_fiber_prints_the_part_the_search_ran_on(capsys, monkeypatch):
    from unicusp import fibers

    built = []
    build = fibers.build_F0

    def recorded(res, case):
        built.append(build(res, case))
        return built[-1]

    monkeypatch.setattr(fibers, "build_F0", recorded)
    code, out, _ = run_cli(capsys, "fiber", "corpus:image-quintic", "--case", "off", "--json")
    assert code == 0
    assert len(built) == 1
    assert json.loads(out)["fiber_part"] == built[0].as_json()


def test_fiber_rejects_wrong_curve(capsys):
    code, _, err = run_cli(capsys, "fiber", "x*z - y^2", "--case", "off")
    assert code == 1
    assert "unicuspidal" in err


def test_fiber_rejects_tiny_resolution(capsys):
    # the cuspidal cubic resolves in three blowups: no budget is left
    code, _, err = run_cli(capsys, "fiber", "y^2*z - x^3", "--case", "off")
    assert code == 1
    assert "budget" in err


def test_fiber_checks_the_budget_before_building_the_part(capsys):
    # (C')^2 = -1 would also fail build_F0's n >= 3; the budget speaks first
    code, out, err = run_cli(capsys, "fiber", "corpus:rational-quintic", "--case", "on")
    assert (code, out) == (1, "")
    assert err == "error: no room to complete a fiber: contraction budget is -2\n"


# -- verify-corpus -------------------------------------------------------------


def _write_corpus(tmp_path, doc):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_verify_corpus_small_file(capsys, tmp_path):
    path = _write_corpus(
        tmp_path,
        {
            "schema": 1,
            "entries": [
                {
                    "name": "node-cubic",
                    "facts": [{"key": "degree", "value": 3}],
                }
            ],
            "pairs": [
                {"left": "line-x", "right": "line-y", "cycle": [["corner-z", 1]]}
            ],
        },
    )
    code, out, _ = run_cli(capsys, "verify-corpus", path)
    assert code == 0
    assert "ok   node-cubic [a=1,b=1,c=0] degree" in out
    assert "4 checks, 0 failures" in out


def test_verify_corpus_catches_corruption(capsys, tmp_path):
    path = _write_corpus(
        tmp_path,
        {
            "schema": 1,
            "entries": [
                {"name": "node-cubic", "facts": [{"key": "degree", "value": 4}]}
            ],
        },
    )
    code, out, _ = run_cli(capsys, "verify-corpus", path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["failures"] == 2  # once per parameter point
    bad = [r for r in doc["results"] if not r["ok"]]
    assert bad and bad[0]["expected"] == "4" and bad[0]["got"] == "3"


def test_verify_corpus_empty_file_warns(capsys, caplog, tmp_path):
    path = _write_corpus(tmp_path, {"schema": 1, "entries": [], "pairs": []})
    code, out, _ = run_cli(capsys, "verify-corpus", path)
    assert code == 0
    assert "0 checks, 0 failures" in out
    assert any("no expectations" in rec.message for rec in caplog.records)


def test_verify_corpus_bad_file_is_usage_level(capsys, tmp_path):
    path = _write_corpus(tmp_path, {"schema": 99})
    code, _, err = run_cli(capsys, "verify-corpus", path)
    assert code == 1
    assert "schema" in err


def _entry(**fields):
    return {"schema": 1, "entries": [{"name": "conic", **fields}], "pairs": []}


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": 1, "entries": [1]},
        {"schema": 1, "entries": "conic"},
        {"schema": 1, "pairs": {"left": "conic"}},
        _entry(facts=5),
        _entry(facts=[{"value": 2}]),
        _entry(facts=[{"key": "degree"}]),
        {"schema": 1, "entries": [{"name": ["x"]}]},
        {"schema": 1, "pairs": [{"left": ["x"], "right": "conic"}]},
        {"schema": 1, "pairs": [{"left": "line-x", "right": "line-y", "cycle": [["nowhere", 1]]}]},
        {"schema": 1, "pairs": [{"left": "line-x", "right": "line-y", "cycle": [["corner-z"]]}]},
        {"schema": 1, "pairs": [{"left": "line-x", "right": "line-y", "cycle": "corner-z"}]},
        _entry(facts=[{"key": "cusp", "value": "nowhere"}]),
        _entry(facts=[{"key": "singular-point", "value": ["contact"]}]),
    ],
)
def test_verify_corpus_malformed_file_is_one_error_line(capsys, tmp_path, doc):
    path = _write_corpus(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify-corpus", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: corpus file ")
    assert err.count("\n") == 1


def test_verify_corpus_seed_only(capsys, tmp_path):
    path = _write_corpus(tmp_path, {"schema": 1, "entries": [], "pairs": []})
    code, out, _ = run_cli(capsys, "verify-corpus", path, "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] == 10 and doc["passed"] is True


def test_verify_corpus_builtin_full_run(capsys):
    code, out, _ = run_cli(capsys, "verify-corpus")
    assert code == 0
    assert ", 0 failures" in out


# -- the installed entry point --------------------------------------------------


ROOT = Path(__file__).resolve().parents[1]


def _run_module(*argv, stdout=subprocess.PIPE):
    """Run ``python -m unicusp ARGV`` in a fresh interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "unicusp", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=env,
    )


def test_console_script_runs():
    # The ``unicusp`` script installed from pyproject.toml calls cli.main;
    # ``python -m unicusp`` runs the same function without an install.
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(
        r'^\[project\.scripts\]\s*\nunicusp\s*=\s*"unicusp\.cli:main"', pyproject, re.M
    )
    proc = _run_module("analyze", "x*z - y^2", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1 and doc["degree"] == 2
    # main's return value must become the process exit code.
    proc = _run_module("analyze", "x +")
    assert proc.returncode == 2
    assert "cannot parse" in proc.stderr


# N = 2^4000 + 1: the common factor y - N that the singular search and the
# intersection cycle split off needs well over a hundred primes near 2^30
BIG_N = 2**4000 + 1


def test_analyze_with_a_huge_coordinate_finishes():
    proc = _run_module("analyze", f"(y - {BIG_N}*z)^2*z - x^3", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["cusp"] == [0, BIG_N, 1]
    assert (doc["genus"], doc["verdict"]) == (0, "OUT_OF_SCOPE")


def test_intersect_with_a_huge_coordinate_finishes():
    proc = _run_module("intersect", f"y - {BIG_N}*z", f"y^2 - {BIG_N}*y*z + x*z", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["cycle"]["residual"] == 0


def test_intersect_image_deg15_node_cubic_finishes():
    # Local number 43 at the cusp: the eliminant has degree 45.
    proc = _run_module("intersect", "corpus:image-deg15", "corpus:node-cubic", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["cycle"] == {"points": [{"P": [0, 0, 1], "m": 43}], "residual": 2, "bezout": 45}
    assert doc["bezout_ok"] is True and doc["fully_located"] is False


def test_closed_stdout_exits_without_traceback():
    # As in `unicusp analyze ... --json | head -c 10`: the reader is gone
    # before the document is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module("analyze", "x*z - y^2", "--json", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_a_dot_path_that_is_a_file_exits_with_one_error_line(tmp_path):
    taken = tmp_path / "F"
    taken.write_text("")
    proc = _run_module("resolve", "corpus:cusp-quartic", "--dot", str(taken))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_full_stdout_exits_with_one_error_line():
    # As in `unicusp analyze x > /dev/full`: every write fails with ENOSPC.
    with open("/dev/full", "w") as full:
        proc = _run_module("analyze", "x", stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_verify_corpus_json_matches_golden_output(capsys):
    # tests/data/verify_corpus.json is `verify-corpus --json` as printed
    # before the modular-resultant kernel changed; any change to the
    # exact arithmetic must leave this document byte-identical.
    golden = Path(__file__).parent / "data" / "verify_corpus.json"
    code, out, _ = run_cli(capsys, "verify-corpus", "--json")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", ["on", "off"])
@pytest.mark.parametrize("name", ["cusp-quartic", "image-quintic", "image-deg15"])
def test_fiber_json_matches_golden_output(capsys, name, case):
    # tests/data/fiber_<name>_<case>.json is `fiber corpus:<name> --case
    # <case> --json` at a=1,b=1,c=0, as printed while the fiber stage still
    # took n, the case and the budget as separate arguments (the two
    # image-deg15 files: while the completion search was still a recursion
    # that threaded its state through every call).  image-deg15 is the one
    # corpus search with a budget above 1.
    golden = Path(__file__).parent / "data" / f"fiber_{name}_{case}.json"
    code, out, _ = run_cli(capsys, "fiber", f"corpus:{name}", "--case", case, "--json")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name",
    ["rational-quintic", "image-quintic", "image-deg15", "cusp-quartic", "node-cubic", "conic"],
)
def test_analyze_json_matches_golden_output(capsys, name):
    # tests/data/analyze_<name>.json is `analyze corpus:<name> --json` at
    # a=1,b=1,c=0, as printed while the classification report still copied
    # the cusp, the sequences and the square out of its resolution: the
    # four resolved cusps, a singular point that is not a cusp, and a
    # smooth curve.
    golden = Path(__file__).parent / "data" / f"analyze_{name}.json"
    code, out, _ = run_cli(capsys, "analyze", f"corpus:{name}", "--json")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "left, right", [("corpus:image-quintic", "corpus:rational-quintic"), ("corpus:mirror-cubic", "z")]
)
def test_intersect_json_matches_golden_output(capsys, left, right):
    # tests/data/intersect_<left>_<right>.json is `intersect <left> <right>
    # --json` at a=1,b=1,c=0, as printed while the search, the cones and the
    # line restrictions each read the rational roots of their binary forms
    # themselves: one cycle from an eliminant (local number 22 at the cusp,
    # residual 3), one from a line restriction whose (1 : 0) parameter has
    # order 2.
    names = "_".join(arg.removeprefix("corpus:") for arg in (left, right))
    golden = Path(__file__).parent / "data" / f"intersect_{names}.json"
    code, out, _ = run_cli(capsys, "intersect", left, right, "--json")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["rational-quintic", "image-quintic", "image-deg15", "cusp-quartic"])
def test_resolve_json_matches_golden_output(capsys, name):
    # tests/data/resolve_<name>.json is `resolve corpus:<name> --json` at
    # a=1,b=1,c=0, as printed while the resolution loop and the fiber chain
    # each wrote out the point-blowup rule on the dual graph themselves.
    golden = Path(__file__).parent / "data" / f"resolve_{name}.json"
    code, out, _ = run_cli(capsys, "resolve", f"corpus:{name}", "--json")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")
