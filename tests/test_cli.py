import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpert import acceptance, cli

FIXTURES = Path(cli.fixture_path(""))


def run_cli(*argv):
    return cli.main(list(argv))


def test_series_zero_measure_ratio_one(tmp_path):
    code = run_cli("series", "--config",
                   str(FIXTURES / "series_zero_measure.json"),
                   "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "series.csv").read_text().strip().splitlines()
    assert rows[0] == "s,x,p,p_mu,ratio,truncation_index,status"
    for row in rows[1:]:
        assert row.split(",")[4] == "1.0"


def test_series_atomless_ratio(tmp_path):
    code = run_cli("series", "--config",
                   str(FIXTURES / "series_atomless.json"),
                   "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "series.csv").read_text().strip().splitlines()
    for row in rows[1:]:
        assert abs(float(row.split(",")[4]) - math.exp(0.25)) < 1e-3


# SHA-256 of outputs recorded before the series engine shared its grid
# levels across calls and evaluated them a row at a time; speedups must
# not move a byte.  Recorded with Python 3.11.7, numpy 2.4.6 and scipy
# 1.17.1 on x86-64: outputs are written at full float precision, so other
# versions (or another CPU's vectorized math) can move last bits.
GOLDEN = {
    "series_atomless": ("series", 0, "series.csv",
                        "9aadbb7ee32b8f7da12ba4dd5feb434f"
                        "9074545b853fbc9bc36cefda880db924"),
    "certify_kappa": ("certify", 0, "certificates.json",
                      "5c2e9129a598698e248bff48b561f98d"
                      "ed874472fb2adc899e71fb36583ef97a"),
    # re-recorded when pure-atom measures moved onto the series engine
    "certify_atom_violation": ("certify", 4, "certificates.json",
                               "0c400791063b3a6a3e2b65e29d0f145d"
                               "fd19799b1a17b8a231169a766ce9a2b2"),
    # recorded before kato_inner_integral evaluated its time nodes in one
    # broadcast and Gauss-Legendre base rules were cached
    "kato_gauss_atom": ("kato", 0, "kato.csv",
                        "d2cce6e4f4fd6b974bdaf78493561d7a"
                        "2b9650b0b0a1cae4ec9f4832e6c31178"),
    "kato_cauchy_d2": ("kato", 0, "kato.csv",
                       "ed8271dfbb8d784727822e09d0727dc9"
                       "30fe569118eec065e115a66cbfe9eae8"),
    # re-recorded when pure-atom measures moved onto the series engine
    "series_atoms": ("series", 0, "series.csv",
                     "7366b562372f386f47916e0725527395"
                     "a0ced9ef8c24e6d4161312f29adbdd99"),
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_fixture_outputs_golden(fixture, tmp_path):
    command, code, name, digest = GOLDEN[fixture]
    assert run_cli(command, "--config", str(FIXTURES / f"{fixture}.json"),
                   "--out", str(tmp_path)) == code
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_series_five_atoms_closed_form(tmp_path):
    # five atoms: a sum over every increasing chain took minutes
    cfg = FIXTURES / "series_atoms5.json"
    atoms = json.loads(cfg.read_text())["measure"]["atoms"]
    assert run_cli("series", "--config", str(cfg), "--out", str(tmp_path)) == 0
    rows = (tmp_path / "series.csv").read_text().strip().splitlines()
    for row in rows[1:]:
        s, _, _, _, ratio, _, status = row.split(",")
        want = math.prod(1.0 + a["eta"] for a in atoms if a["u"] > float(s))
        assert float(ratio) == pytest.approx(want, rel=1e-6)
        assert status == "converged"


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("series", "--config", str(bad)) == 2


def test_unknown_kernel_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"name": "heat"}}))
    assert run_cli("series", "--config", str(cfg)) == 2


# Inputs that ended in a traceback or a silently wrong number: a negative
# density gave ratio 0.5 marked converged (the truth is e**-0.5), NaN gave
# nan, a peak kernel in d = 2 died in a broadcast inside the series engine
# and stable-potential in a TypeError.
_SERIES_CASE = {"target": {"t": 1.0, "y": 0.0},
                "samples": {"s": [0.0], "x": [0.3]},
                "slicing": {"mode": "time-uniform", "h": 0.5}}
BAD_INPUTS = {
    "negative-density": ({"kernel": {"name": "gaussian", "d": 1},
                          "measure": {"density": {"kind": "const",
                                                  "lambda": -0.5}}},
                         "lambda"),
    "nan-density": ({"kernel": {"name": "gaussian", "d": 1},
                     "measure": {"density": {"kind": "const",
                                             "lambda": float("nan")}}},
                    "lambda"),
    "nan-power-density": ({"kernel": {"name": "gaussian", "d": 1},
                           "measure": {"density": {"kind": "power",
                                                   "eps": float("nan")}}},
                          "eps"),
    "nan-corner-density": ({"kernel": {"name": "gaussian", "d": 1},
                            "measure": {"density": {"kind": "q0",
                                                    "c": float("nan"),
                                                    "p": 0.25}}},
                           "coefficient"),
    "cauchy-d2": ({"kernel": {"name": "cauchy", "d": 2},
                   "measure": {"density": {"kind": "const", "lambda": 0.5,
                                           "dim": 2}},
                   "samples": {"s": [0.0, 0.0], "x": [0.0, 0.5]}},
                  "'cauchy' in d = 2"),
    "gaussian-d2": ({"kernel": {"name": "gaussian", "d": 2},
                     "measure": {"density": {"kind": "const", "lambda": 0.5,
                                             "dim": 2}},
                     "samples": {"s": [0.0, 0.0], "x": [0.0, 0.5]}},
                    "'gaussian' in d = 2"),
    "stable-potential": ({"kernel": {"name": "stable-potential:1.0"},
                          "measure": {"density": {"kind": "const",
                                                  "lambda": 0.5}}},
                         "unknown kernel 'stable-potential:1.0'"),
    # a NaN atom time was dropped (ratio 1.0, exit 0), an infinite weight
    # gave ratio inf and a NaN support end dropped the density, each marked
    # converged; eps = -3 gave ratio -1.1e31; a non-finite target or sample
    # ended in a fitpack traceback
    "nan-atom-time": ({"measure": {"atoms": [{"u": float("nan"),
                                              "eta": 0.5}]}},
                      "atom time must be finite"),
    "inf-atom-weight": ({"measure": {"atoms": [{"u": 0.5,
                                                "eta": float("inf")}]}},
                        "atom weights must be positive and finite"),
    "nan-support": ({"measure": {"density": {"kind": "const", "lambda": 0.5},
                                 "support": [float("nan"), 2.0]}},
                    "support [lo, hi] needs lo < hi"),
    "power-eps-not-integrable": ({"measure": {"density": {"kind": "power",
                                                          "eps": -3.0}}},
                                 "density eps must exceed 1 - d = 0"),
    "nan-target-time": ({"target": {"t": float("nan"), "y": 0.0}},
                        "target t and y must be finite"),
    "inf-target-point": ({"target": {"t": 1.0, "y": float("inf")}},
                         "target t and y must be finite"),
    "nan-sample": ({"samples": {"s": [float("nan")], "x": [0.3]}},
                   "samples s and x must be finite"),
}


@pytest.mark.parametrize("command", ["series", "certify"])
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_2_with_message(case, command, tmp_path, capsys):
    doc, message = BAD_INPUTS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SERIES_CASE, **doc}))
    assert run_cli(command, "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kato_rejects_stable_potential(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_INPUTS["stable-potential"][0]))
    assert run_cli("kato", "--config", str(cfg), "--windows", "0.5") == 2
    assert "'stable-potential:1.0'" in capsys.readouterr().err


def test_certify_discrete_fixture_exit_0(tmp_path):
    code = run_cli("certify", "--config",
                   str(FIXTURES / "certify_discrete.json"),
                   "--out", str(tmp_path))
    assert code == 0
    certs = json.loads((tmp_path / "certificates.json").read_text())
    assert [c["status"] for c in certs] == ["VALID"] * 3
    assert [c["slice"] for c in certs] == [1, 2, 3]
    csv_rows = (tmp_path / "certificates.csv").read_text().splitlines()
    assert csv_rows[0] == \
        "slice,eta,beta,bound,measured_ratio,margin,status,samples"


def test_certify_atom_violation_exit_4(tmp_path):
    code = run_cli("certify", "--config",
                   str(FIXTURES / "certify_atom_violation.json"),
                   "--out", str(tmp_path))
    assert code == 4
    certs = json.loads((tmp_path / "certificates.json").read_text())
    assert any(c["status"] == "HYPOTHESIS_FAIL" for c in certs)


def test_certify_kappa_fixture_exit_0(tmp_path):
    code = run_cli("certify", "--config",
                   str(FIXTURES / "certify_kappa.json"),
                   "--out", str(tmp_path))
    assert code == 0
    certs = json.loads((tmp_path / "certificates.json").read_text())
    assert all(c["status"] == "VALID" for c in certs)
    assert len(certs) == 4


# eta >= 1 on both branches that estimate constants before certifying;
# the diagonal-level branch once exited 4 with no output and no message
SMALLNESS_FAILS = {
    "diagonal-level": {"kernel": {"name": "kappa"},
                       "target": {"t": 1.0, "y": 1.0},
                       "slicing": {"mode": "diagonal-level", "c": 5,
                                   "p": 0.2, "h": 0.9}},
    "discrete": {"discrete": {"path": "problem.json", "chain": ["A1"]}},
}


@pytest.mark.parametrize("case", sorted(SMALLNESS_FAILS))
def test_certify_smallness_failure_exit_4_with_message(case, tmp_path,
                                                       capsys):
    (tmp_path / "problem.json").write_text(json.dumps(
        {"n": 2, "entries": [[0.0, 0.0], [1.5, 0.0]], "sets": {"A1": [0, 1]},
         "f": [1.0, 1.0]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALLNESS_FAILS[case]))
    out = tmp_path / "out"
    assert run_cli("certify", "--config", str(cfg), "--out", str(out)) == 4
    doc = json.loads((out / "certificates.json").read_text())
    assert doc["error"] == "local smallness fails" and doc["eta"] >= 1.0
    assert (out / "certificates.json").read_text() == json.dumps(
        doc, indent=2, sort_keys=True) + "\n"
    assert not (out / "certificates.csv").exists()
    assert f"eta = {doc['eta']!r}" in capsys.readouterr().err


def test_invalid_certificates_exit_3(tmp_path, monkeypatch):
    import kpert.bounds as bnd
    from kpert.bounds import BoundCertificate
    fake = [BoundCertificate(1, 0.5, 0.5, 2.0, 3.0, "INVALID", 4)]
    monkeypatch.setattr(cli.bnd, "certify",
                        lambda *a, **k: fake)
    code = run_cli("certify", "--config",
                   str(FIXTURES / "certify_discrete.json"),
                   "--out", str(tmp_path))
    assert code == 3


def test_oracle_check(tmp_path):
    assert run_cli("oracle-check", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "oracles.csv").read_text().strip().splitlines()
    assert rows[0] == "case,measured,expected,rel_error"
    for row in rows[1:]:
        assert float(row.split(",")[-1]) < 1e-3
    # pins the single-atom series and MultiAtomOperator (three atoms);
    # re-recorded when MultiAtomOperator became one matrix summed by
    # matrix_kernels (multi-atom-L3 7.999999915000639 -> 7.999999917838267)
    assert hashlib.sha256((tmp_path / "oracles.csv").read_bytes()).hexdigest() \
        == ("34eb9998eb8aaf05c86786dcdce10542"
            "618f570607f2f4348c91866c60614fa3")


def test_kato_command(tmp_path):
    assert run_cli("kato", "--windows", "0.5,0.25", "--out",
                   str(tmp_path)) == 0
    rows = (tmp_path / "kato.csv").read_text().strip().splitlines()
    assert rows[0] == "h,k_h"
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals[0] > vals[1]


def test_3g_command(tmp_path):
    assert run_cli("3g", "--seed", "3", "--samples", "5000",
                   "--out", str(tmp_path)) == 0
    text = (tmp_path / "3g.csv").read_text()
    assert "all_in_range,True" in text


def test_weyl_command(tmp_path):
    assert run_cli("weyl", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "weyl.csv").read_text().strip().splitlines()
    for row in rows[1:]:
        assert float(row.split(",")[-1]) < 1e-6


def test_reproduce_only_filter(tmp_path, capsys):
    code = run_cli("reproduce", "--only", "determinism", "--seed", "7",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "determinism" in out and "PASS" in out
    assert (tmp_path / "reproduce_summary.csv").exists()
    assert (tmp_path / "artifacts.txt").exists()


def test_reproduce_unknown_filter():
    assert run_cli("reproduce", "--only", "nonexistent") == 2


def test_reproduce_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("reproduce", "--only", "determinism", "--seed", "7",
                       "--out", str(out)) == 0
    assert (a / "artifacts.txt").read_bytes() == \
        (b / "artifacts.txt").read_bytes()
    assert (a / "reproduce_summary.csv").read_text().splitlines()[1].split(",")[:3] == \
        (b / "reproduce_summary.csv").read_text().splitlines()[1].split(",")[:3]


def test_reproduce_prints_wall_time(monkeypatch, capsys):
    def fake(number):
        return lambda seed: acceptance.CriterionResult(
            number, f"fake{number}", True, "instant", 100.0)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [("fake1", fake(1)), ("fake2", fake(2))])
    assert run_cli("reproduce") == 0
    total = re.search(r"2/2 passed in ([0-9.]+)s", capsys.readouterr().out)
    assert float(total.group(1)) < 1.0


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kpert.cli", "weyl", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
