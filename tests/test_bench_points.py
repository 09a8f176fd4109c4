"""The trajectory points committed at the repository root, BENCH_<sha>.json:
each names its commit and method, and holds consistent quartiles for every
end-to-end metric of every workload."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
POINTS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = ("corpus-verify", "elimination", "cremona")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def test_there_are_bench_points():
    assert POINTS


@pytest.mark.parametrize("path", POINTS, ids=lambda p: p.name)
def test_bench_point_is_well_formed(path):
    match = re.fullmatch(r"BENCH_([0-9a-f]{7,40})\.json", path.name)
    assert match, path.name
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["commit"].startswith(match.group(1))
    assert doc["method"]
    for workload in WORKLOADS:
        for metric in METRICS:
            s = doc["end_to_end"][workload][metric]
            assert s["q1"] <= s["median"] <= s["q3"], (workload, metric)
