"""Self-tests of the benchmark itself (not of kpert).

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps it out of the repository's default test collection.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ROOT / "src" / "kpert" / "fixtures"


def _generate(tmp_path, workload, seed, name):
    ops, hashes = workloads.generate(workload, seed, 1.0, tmp_path / name)
    text = json.dumps(ops, sort_keys=True).replace(str(tmp_path / name), "IN")
    return text, hashes


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_generators_deterministic_per_seed(tmp_path, workload):
    a = _generate(tmp_path, workload, 5, "a")
    b = _generate(tmp_path, workload, 5, "b")
    c = _generate(tmp_path, workload, 6, "c")
    assert a == b
    assert a[1] != c[1]
    assert a[1], "the generator wrote no input files"


def test_every_op_has_a_distinct_config(tmp_path):
    for workload in workloads.WHY:
        _, hashes = _generate(tmp_path, workload, 9, workload)
        assert len(set(hashes.values())) == len(hashes)


def test_oracle_exact_on_zero_measure_fixture(tmp_path):
    from kpert import cli
    cfg = json.loads((FIXTURES / "series_zero_measure.json").read_text())
    measure = cfg.get("measure", {})
    for s in cfg["samples"]["s"]:
        assert oracles.series_ratio(measure, s, cfg["target"]["t"]) == 1.0
    assert cli.main(["series", "--config",
                     str(FIXTURES / "series_zero_measure.json"),
                     "--out", str(tmp_path)]) == 0
    rows = oracles._read_csv(tmp_path / "series.csv")
    assert [float(r["ratio"]) for r in rows] == [1.0] * len(rows)


def test_oracle_exact_on_discrete_fixture(tmp_path):
    from kpert import cli
    problem = json.loads((FIXTURES / "discrete_eta05.json").read_text())
    g, f, slices, eta, beta = oracles.matrix_oracle(problem, ["A1", "A2", "A3"])
    assert g.tolist() == [2.0, 3.0, 4.5]
    assert (eta, beta) == (0.5, 0.5)
    assert [oracles.theorem_bound(eta, beta, j) for j in (1, 2, 3)] == \
        [2.0, 4.0, 8.0]
    assert cli.main(["certify", "--config",
                     str(FIXTURES / "certify_discrete.json"),
                     "--out", str(tmp_path)]) == 0
    certs = json.loads((tmp_path / "certificates.json").read_text())
    for c, S, want in zip(certs, slices, (2.0, 3.0, 4.5)):
        assert float(max(g[S] / f[S])) == want
        assert math.isclose(c["measured_ratio"], want, rel_tol=oracles.TOL_EXACT)


def test_series_ratio_counts_atoms_inside_support_only():
    measure = {"density": {"kind": "const", "lambda": 0.5},
               "support": [0.2, 0.8],
               "atoms": [{"u": 0.1, "eta": 1.0}, {"u": 0.5, "eta": 0.25}]}
    assert oracles.series_ratio(measure, 0.0, 1.0) == \
        math.exp(0.5 * 0.6) * 1.25
    assert oracles.series_ratio(measure, 0.6, 1.0) == math.exp(0.5 * 0.2)


def _snapshot():
    snap = {}
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"kpert.{layer}")
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    snap[(mod.__name__, attr, cattr)] = cobj
    return snap


def test_wrappers_leave_kpert_unpatched(tmp_path):
    from kpert import cli
    before = _snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert len(tr._patches) > 50
        assert cli.main(["series", "--config",
                         str(FIXTURES / "series_atomless.json"),
                         "--out", str(tmp_path)]) == 0
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    summary = tr.summary()
    assert summary["cli.load_config.calls"] == 1
    assert summary["perturbation.engines"] == 2
    assert summary["perturbation.spline_evals"] > 0
    assert summary["perturbation.self_s"] > 0


def test_scaled_times_follow_the_speed_probes():
    ref = run.PROBE_REF_S
    child = {"speed_probe_s": [ref, ref, 2 * ref, 2 * ref],
             "ops": [{"seconds": 1.0, "speed_probe": 0},
                     {"seconds": 3.0, "speed_probe": 1},
                     {"seconds": 4.0, "speed_probe": 2}],
             "loop_wall_s": 8.5}
    ops, wall = run.scaled_times(child)
    assert ops == pytest.approx([1.0, 2.0, 2.0])
    assert wall == pytest.approx(5.0 + 0.5 / 1.5)
    child["setup_s"] = 1.2
    assert run.scaled_setup(child) == pytest.approx(1.2)
