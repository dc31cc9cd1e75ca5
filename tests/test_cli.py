import hashlib
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kpert import acceptance, cli
from kpert import matrix_kernels as mk
from kpert import perturbation as pt
from test_spacetime import _kato_corner

FIXTURES = Path(cli.fixture_path(""))


def run_cli(*argv):
    return cli.main(list(argv))


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not
    JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


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
# not move a byte.  Recorded with Python 3.11.7 and numpy 2.4.6 on
# x86-64: outputs are written at full float precision, so other versions
# (or another CPU's vectorized math) can move last bits.  kpert itself
# no longer uses scipy, so its version does not enter these hashes.
GOLDEN = {
    # series_atomless, series_atoms, certify_atom_violation and
    # certify_time_uniform were re-recorded when the engine summed
    # Gaussian bridges in closed form, and the last three again when the
    # Gaussian and Cauchy series multiplied their atoms in exactly;
    # CHANGES.md tables each moved value with its stated error
    "series_atomless": ("series", 0, "series.csv",
                        "590dbfe324afc81747099e306915dbed"
                        "5b8b798c2d708ff629b507572aaf4da9"),
    # re-recorded when each level strip mapped its own Halton pairs onto
    # its levels instead of keeping the draws over the square that fell in
    # it: every sample point moved, and CHANGES.md tables the moved values
    "certify_kappa": ("certify", 0, "certificates.json",
                      "a40c65dea2c054995cc9ce7abf3f621f"
                      "9d9fb57bef0d5392aefbc14005be7c8f"),
    # re-recorded when eta >= 1 on time slices wrote the error and eta
    # in place of certificates
    "certify_atom_violation": ("certify", 4, "certificates.json",
                               "298734ce1aa2df3ec65e3338fed20b51"
                               "a8452ed970ca21787807bc4468098de4"),
    # re-recorded when kato printed k(h) in closed form
    # (spacetime.kato_modulus) in place of a sampled quadrature sup; the
    # closed form is plain float arithmetic, with one hash on both
    # dispatches, and CHANGES.md lists each moved value
    "kato_gauss_atom": ("kato", 0, "kato.csv",
                        "01c867c70041afe78d89cfabe0d4b62c"
                        "7127ddd39c4187636d6075df8a2498e3"),
    "kato_cauchy_d2": ("kato", 0, "kato.csv",
                       "160e7632553a3e7c28380ce7ec732877"
                       "5edfc9396fff29a430394d1389c4b710"),
    # re-recorded when pure-atom measures moved onto the series engine
    "series_atoms": ("series", 0, "series.csv",
                     "a9b74dcf2c0a9155e7cc4b438be83160"
                     "76b5047771962c49194768193f4a9ca8"),
    # recorded before neumann_series stopped sending each term through
    # apply and a slice problem summed its series once
    "certify_discrete": ("certify", 0, "certificates.json",
                         "ec5e0007b3f38b5566c26e44712fab9d"
                         "ed5f443431eb33922bd15c319458dafd"),
    # the README's run config: time slices, density and atom; recorded
    # before the slice problem read p_1 from one engine per slice measure
    "certify_time_uniform": ("certify", 0, "certificates.json",
                             "dd8296a47d735bed10f0a71f7b9889df"
                             "668f469bb9fb49091e9a26e9b30e1949"),
}


# The same outputs on numpy's AVX2 dispatch, where the vector exp and
# power round some last bits differently; recorded with the code and
# versions above under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR".  Every other fixture has one hash on both dispatches.
GOLDEN_AVX2 = {
    "certify_kappa": "f6e6fdf95dd81df75e5b023ab462c778"
                     "9916b3a7a390821378ba48110b2c364b",
    "series_atoms": "0ee197d199a203b866b98c03a6d0a218"
                    "084ddfe906e5214f7a2bfaaa17b61ae9",
}


# The artifacts.txt of `kpert reproduce --seed 7`, that is
# acceptance.reproduce_artifacts(7), on each dispatch
REPRODUCE_ARTIFACTS = ("e99a474ee84012ba7c3273948636f2fe"
                       "8b4f618609a824654cab08a0cc16db38")
REPRODUCE_ARTIFACTS_AVX2 = ("37371d3c8179d51728c53152da2c7469"
                            "8f40c1f11857d76fa8d92ed11018144c")


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_fixture_outputs_golden(fixture, tmp_path, numpy_avx2):
    command, code, name, digest = GOLDEN[fixture]
    if numpy_avx2:
        digest = GOLDEN_AVX2.get(fixture, digest)
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
        assert float(ratio) == pytest.approx(want, rel=1e-12)
        assert status == "converged"


def test_main_parses_each_call_afresh(tmp_path, monkeypatch):
    # main builds its parser once; no argument may leak into a later call
    parser = cli._parser()
    seen = []
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv=None: seen.append(parse(argv)) or seen[-1])
    assert run_cli("certify", "--config",
                   str(FIXTURES / "certify_discrete.json"), "--seed", "3",
                   "--out", str(tmp_path / "a")) == 0
    assert run_cli("series", "--config",
                   str(FIXTURES / "series_zero_measure.json"),
                   "--out", str(tmp_path / "b")) == 0
    assert cli._parser() is parser
    first, second = seen
    assert first.seed == 3
    assert vars(second) == {"command": "series",
                            "config": str(FIXTURES / "series_zero_measure.json"),
                            "out": str(tmp_path / "b"), "fn": cli.cmd_series}


def test_certify_without_slice_width_names_it(capsys):
    # a time-uniform config with no slicing.h exited 2 with only "error: 'h'"
    assert run_cli("certify", "--config",
                   str(FIXTURES / "series_atomless.json")) == 2
    assert "slicing.h" in capsys.readouterr().err


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
    # a measure part missing a key or of the wrong JSON type exited 2 with
    # a Python internal as its message: 'u', 'lambda', "'int' object is
    # not subscriptable", "string indices must be integers" or "not
    # enough values to unpack"
    "atom-without-u": ({"measure": {"atoms": [{"eta": 0.5}]}},
                       "measure.atoms[0] needs u and eta"),
    "atom-number": ({"measure": {"atoms": [1]}},
                    "measure.atoms[0] needs u and eta"),
    "atoms-object": ({"measure": {"atoms": {"u": 0.5, "eta": 0.5}}},
                     "measure.atoms must be a list"),
    "const-without-lambda": ({"measure": {"density": {"kind": "const"}}},
                             "measure.density needs lambda"),
    "support-one-end": ({"measure": {"density": {"kind": "const",
                                                 "lambda": 0.5},
                                     "support": [0.2]}},
                        "measure.support must be [lo, hi]"),
    "power-eps-not-integrable": ({"measure": {"density": {"kind": "power",
                                                          "eps": -3.0}}},
                                 "density eps must exceed 1 - d = 0"),
    "nan-target-time": ({"target": {"t": float("nan"), "y": 0.0}},
                        "target t and y must be finite"),
    "inf-target-point": ({"target": {"t": 1.0, "y": float("inf")}},
                         "target t and y must be finite"),
    "nan-sample": ({"samples": {"s": [float("nan")], "x": [0.3]}},
                   "samples s and x must be finite"),
    # max_terms 0 or -3 gave ratio 1.0 marked converged (the truth is
    # e**0.25 for a density); rel_tol 0, -1 or NaN ran every point to
    # truncated; no samples ended in a reduction traceback
    "max-terms-zero": ({"quad": {"max_terms": 0}},
                       "max_terms must be at least 1"),
    "max-terms-negative": ({"quad": {"max_terms": -3}},
                           "max_terms must be at least 1"),
    "max-terms-inf": ({"quad": {"max_terms": float("inf")}},
                      "quad max_terms must be an integer, got inf"),
    # int() ran 2.5 as 2 terms and true as 1, each exit 0 with truncated
    # rows; a seed of 2.7 certified with seed 2
    "max-terms-fraction": ({"quad": {"max_terms": 2.5}},
                           "quad max_terms must be an integer, got 2.5"),
    "max-terms-bool": ({"quad": {"max_terms": True}},
                       "quad max_terms must be an integer, got True"),
    "seed-fraction": ({"seed": 2.7},
                      "seed must be a non-negative integer, got 2.7"),
    "rel-tol-zero": ({"quad": {"rel_tol": 0.0}},
                     "rel_tol must lie in (0, 1)"),
    "rel-tol-negative": ({"quad": {"rel_tol": -1.0}},
                         "rel_tol must lie in (0, 1)"),
    "rel-tol-nan": ({"quad": {"rel_tol": float("nan")}},
                    "rel_tol must lie in (0, 1)"),
    "no-samples": ({"samples": {"s": [], "x": []}},
                   "samples need at least one point"),
    "empty-grid": ({"samples": {"grid": {"s": [0.0, 0.5, 0],
                                         "x": [0.0, 1.0, 3]}}},
                   "samples need at least one point"),
    "negative-seed": ({"seed": -1}, "seed must be a non-negative integer"),
    # a density dim other than the kernel's d ended in a numpy broadcast
    # traceback; int() read d = 2.5 as 2 and d = true as 1
    "density-dim-above-d": ({"measure": {"density": {"kind": "const",
                                                     "lambda": 0.5,
                                                     "dim": 2}}},
                            "density dim must equal the kernel's d = 1, "
                            "got 2"),
    "density-dim-fraction": ({"kernel": {"name": "cauchy", "d": 2},
                              "measure": {"density": {"kind": "power",
                                                      "eps": 0.5,
                                                      "dim": 1.5}}},
                             "density dim must equal the kernel's d = 2, "
                             "got 1.5"),
    "q0-density-d2": ({"kernel": {"name": "cauchy", "d": 2},
                       "measure": {"density": {"kind": "q0", "c": 0.5,
                                               "p": 0.2}}},
                      "density kind 'q0' takes d = 1, the kernel has d = 2"),
    "kernel-d-fraction": ({"kernel": {"name": "gaussian", "d": 2.5}},
                          "kernel d must be a positive integer, got 2.5"),
    "kernel-d-bool": ({"kernel": {"name": "gaussian", "d": True}},
                      "kernel d must be a positive integer, got True"),
    # a section of the wrong JSON type ended in an AttributeError,
    # TypeError or IndexError traceback
    "config-not-object": ([1, 2], "a config must be a JSON object"),
    "kernel-number": ({"kernel": 0.5}, "kernel must be a JSON object"),
    "measure-list": ({"measure": []}, "measure must be a JSON object"),
    "target-number": ({"target": -1}, "target must be a JSON object"),
    "samples-string": ({"samples": "x"}, "samples must be a JSON object"),
    "quad-list": ({"quad": [1, 2]}, "quad must be a JSON object"),
    "slicing-number": ({"slicing": 3}, "slicing must be a JSON object"),
    "density-bool": ({"measure": {"density": True}},
                     "measure.density must be a JSON object"),
    "grid-number": ({"samples": {"grid": 2}},
                    "samples.grid must be a JSON object"),
    "discrete-number": ({"discrete": -0.5},
                        "discrete must be a JSON object"),
    "discrete-path-number": ({"discrete": {"path": 0.5}},
                             "discrete.path must be a string, got 0.5"),
    "grid-axis-empty": ({"samples": {"grid": {"s": [0.0, 0.5, 2],
                                              "x": []}}},
                        "samples.grid.x must be [lo, hi, n]"),
    "grid-axis-missing": ({"samples": {"grid": {"s": [0.0, 0.5, 2]}}},
                          "samples.grid.x must be [lo, hi, n]"),
    "grid-count-fraction": ({"samples": {"grid": {"s": [0.0, 0.5, 2.5],
                                                  "x": [0.0, 1.0, 3]}}},
                            "samples.grid.s must be [lo, hi, n]"),
    # an oversized grid ended in a numpy _ArrayMemoryError traceback (a
    # 1e5 x 1e5 grid asked for 74.5 GiB); the count is checked before
    # any array is built
    "grid-axis-past-limit": ({"samples": {"grid": {"s": [0.0, 0.5, 1e12],
                                                   "x": [0.0, 1.0, 3]}}},
                             "samples.grid asks for 1000000000000 x 3 "
                             "points, more than 100000"),
    "grid-past-limit": ({"samples": {"grid": {"s": [0.0, 0.5, 100000],
                                              "x": [0.0, 1.0, 100000]}}},
                        "samples.grid asks for 100000 x 100000 points"),
    "samples-list-past-limit": ({"samples": {"s": [0.0] * 100001,
                                             "x": [0.3] * 100001}},
                                "samples need at least one point and at "
                                "most 100000"),
}


@pytest.mark.parametrize("command", ["series", "certify"])
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_2_with_message(case, command, tmp_path, capsys):
    doc, message = BAD_INPUTS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SERIES_CASE, **doc}
                              if isinstance(doc, dict) else doc))
    assert run_cli(command, "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# certify inputs that ended in a traceback, in a bare "error: 'c'" or, for
# a reversed interval, in exit 0 with a certificate for an empty slice;
# each case is (config, the problem.json beside it or None, message)
_KAPPA = {"kernel": {"name": "kappa"}, "target": {"t": 1.0, "y": 1.0}}
_PROBLEM = {"n": 2, "entries": [[0.5, 0.0], [0.25, 0.5]],
            "sets": {"A1": [0], "A2": [0, 1]}, "f": [1.0, 1.0]}
_DISCRETE = {"discrete": {"path": "problem.json", "chain": ["A1", "A2"]}}
_LAMBDA_1_2 = {"measure": {"density": {"kind": "const", "lambda": 1.2}}}
BAD_CERTIFY_INPUTS = {
    "time-uniform-h-negative": (
        {"slicing": {"mode": "time-uniform", "h": -0.5}}, None,
        "slicing.h must be positive and finite"),
    "time-uniform-r-at-target": (
        {"slicing": {"mode": "time-uniform", "h": 0.5, "r": 1.0}}, None,
        "slicing.r = 1.0 must lie below the target time"),
    "time-uniform-zero-samples": (
        {"slicing": {"mode": "time-uniform", "h": 0.5, "n_samples": 0}},
        None, "slicing.n_samples must be a positive integer"),
    "time-uniform-nan-eta": (
        {"slicing": {"mode": "time-uniform", "h": 0.5,
                     "eta": float("nan")}}, None, "slicing.eta must be"),
    "intervals-missing": ({"slicing": {"mode": "intervals"}}, None,
                          "slicing.intervals must be a non-empty list"),
    "intervals-reversed": (
        {"slicing": {"mode": "intervals", "intervals": [[0.5, 0.2]]}}, None,
        "slicing.intervals must be a non-empty list"),
    "diagonal-p-above-half": (
        {**_KAPPA, "slicing": {"mode": "diagonal-level", "c": 0.05,
                               "p": 0.7}}, None, "slicing.p must lie in"),
    "diagonal-c-negative": (
        {**_KAPPA, "slicing": {"mode": "diagonal-level", "c": -1,
                               "p": 0.1}}, None, "slicing.c must be"),
    "diagonal-c-missing": (
        {**_KAPPA, "slicing": {"mode": "diagonal-level", "p": 0.1}}, None,
        "diagonal-level slicing needs slicing.c"),
    "diagonal-eta-target-above-one": (
        {**_KAPPA, "slicing": {"mode": "diagonal-level", "c": 0.05,
                               "p": 0.1, "eta_target": 1.5}}, None,
        "slicing.eta_target must lie in (0, 1)"),
    "diagonal-h-zero": (
        {**_KAPPA, "slicing": {"mode": "diagonal-level", "c": 0.05,
                               "p": 0.1, "h": 0}}, None,
        "slicing.h must be positive and finite"),
    "diagonal-gaussian-kernel": (
        {"slicing": {"mode": "diagonal-level", "c": 0.05, "p": 0.1}}, None,
        "diagonal-level slicing takes kernel kappa"),
    # 1245 strips at c = 0.5: the bound 2**1244 overflowed in a traceback
    "diagonal-bound-past-float-range": (
        {**_KAPPA, "slicing": {"mode": "diagonal-level", "c": 0.5,
                               "p": 0.1, "eta_target": 0.5}}, None,
        "the slice bound overflows a float at slice 1245"),
    # kappa in d = 2 certified as d = 1: four VALID certificates, exit 0
    "diagonal-kappa-d2": (
        {"kernel": {"name": "kappa", "d": 2}, "target": {"t": 1.0, "y": 1.0},
         "slicing": {"mode": "diagonal-level", "c": 0.05, "p": 0.1}}, None,
        "certify cannot take kernel 'kappa' in d = 2"),
    "diagonal-target-on-axis": (
        {**_KAPPA, "target": {"t": 1.0, "y": 0.0},
         "slicing": {"mode": "diagonal-level", "c": 0.05, "p": 0.1}}, None,
        "a target with t > 0 and y > 0"),
    "discrete-nan-control": (
        _DISCRETE, {**_PROBLEM, "f": [float("nan"), 1.0]},
        "invalid discrete problem"),
    "discrete-chain-not-absorbing": (
        _DISCRETE, {**_PROBLEM, "entries": [[0.5, 0.25], [0.25, 0.5]]},
        "invalid discrete problem"),
    "discrete-unknown-set": (
        {"discrete": {"path": "problem.json", "chain": ["B9"]}}, _PROBLEM,
        "problem.json: 'B9'"),
    "discrete-no-path": ({"discrete": {"chain": ["A1"]}}, None,
                         "needs discrete.path"),
    # intervals at or above the target time certified an empty slice: one
    # VALID certificate with ratio 0, exit 0
    "intervals-above-target": (
        {"slicing": {"mode": "intervals", "intervals": [[1.5, 2.0]]}}, None,
        "downward from the target time t = 1.0"),
    "intervals-past-target": (
        {"slicing": {"mode": "intervals",
                     "intervals": [[0.0, 0.5], [0.5, 1.25]]}}, None,
        "downward from the target time t = 1.0"),
    # intervals that do not tile [r, t) downward from the target were
    # certified as if they did: on lambda = 1.2 with 8 samples, ascending
    # order read slice 1 INVALID (3.26 against a bound of 2.50) and
    # overlapping intervals slice 1 INVALID (2.58 against 2.39), exit 3;
    # a gap or a top below t read VALID
    "intervals-ascending": (
        {**_LAMBDA_1_2, "slicing": {"mode": "intervals", "n_samples": 8,
                                    "intervals": [[0.0, 0.5], [0.5, 1.0]]}},
        None, "that tile [r, t) downward"),
    "intervals-overlapping": (
        {**_LAMBDA_1_2, "slicing": {"mode": "intervals", "n_samples": 8,
                                    "intervals": [[0.2, 0.6], [0.0, 0.5]]}},
        None, "that tile [r, t) downward"),
    "intervals-gap": (
        {**_LAMBDA_1_2, "slicing": {"mode": "intervals", "n_samples": 8,
                                    "intervals": [[0.5, 1.0], [0.0, 0.4]]}},
        None, "that tile [r, t) downward"),
    "intervals-top-below-target": (
        {**_LAMBDA_1_2, "slicing": {"mode": "intervals", "n_samples": 8,
                                    "intervals": [[0.5, 0.9], [0.0, 0.5]]}},
        None, "that tile [r, t) downward"),
    # found by test_fixture_mutations_exit_cleanly: n_samples = 1e300
    # ended in a numpy traceback, c = 1e300 solved to a strip width of 0
    # (a traceback), and t = 1e300 or r = -1e300 asked for about 1e300
    # slices, which never finished
    "time-uniform-samples-past-limit": (
        {"slicing": {"mode": "time-uniform", "h": 0.5, "n_samples": 1e300}},
        None, "slicing.n_samples must be a positive integer up to 100000"),
    "time-uniform-far-target": (
        {"target": {"t": 1e300, "y": 0.0},
         "slicing": {"mode": "time-uniform", "h": 0.5}}, None,
        "slicing.h = 0.5 cuts a range of length 1e+300 into more than "
        "10000 slices"),
    "time-uniform-far-start": (
        {"slicing": {"mode": "time-uniform", "h": 0.5, "r": -1e300}}, None,
        "slicing.h = 0.5 cuts a range of length 1e+300 into more than"),
    "diagonal-far-target": (
        {**_KAPPA, "target": {"t": 1e300, "y": 1.0},
         "slicing": {"mode": "diagonal-level", "c": 0.05, "p": 0.1}}, None,
        "the strip width from slicing.c, p and eta_target = "),
    "diagonal-strip-width-zero": (
        {**_KAPPA, "slicing": {"mode": "diagonal-level", "c": 1e300,
                               "p": 0.1}}, None,
        "the strip width from slicing.c, p and eta_target = 0.0 cuts"),
    # set indices past n, a float or a bool ended in an IndexError
    # traceback; -1 silently meant state n - 1 and certified VALID
    "discrete-index-past-n": (
        _DISCRETE, {**_PROBLEM, "sets": {"A1": [0, 5], "A2": [0, 1]}},
        "set 'A1': state index 5 is not an integer in 0..1"),
    "discrete-index-float": (
        _DISCRETE, {**_PROBLEM, "sets": {"A1": [0.5], "A2": [0, 1]}},
        "set 'A1': state index 0.5 is not an integer in 0..1"),
    "discrete-index-bool": (
        _DISCRETE, {**_PROBLEM, "sets": {"A1": [0], "A2": [True, 1]}},
        "set 'A2': state index True is not an integer in 0..1"),
    "discrete-index-negative": (
        _DISCRETE, {**_PROBLEM, "entries": [[0.5, 0.25], [0.0, 0.5]],
                    "sets": {"A1": [-1], "A2": [0, 1]}},
        "set 'A1': state index -1 is not an integer in 0..1"),
}


@pytest.mark.parametrize("case", sorted(BAD_CERTIFY_INPUTS))
def test_bad_certify_input_exit_2_with_message(case, tmp_path, capsys):
    doc, problem, message = BAD_CERTIFY_INPUTS[case]
    if problem is not None:
        (tmp_path / "problem.json").write_text(json.dumps(problem))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SERIES_CASE, **doc}))
    assert run_cli("certify", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert message in err
    if problem is not None:
        assert str(tmp_path / "problem.json") in err
    assert not (tmp_path / "out").exists()


def test_certify_config_seed_applies_without_flag(tmp_path):
    # --seed defaulted to 0, so a config's seed key was never read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **_SERIES_CASE, "seed": 3,
        "measure": {"density": {"kind": "const", "lambda": 0.25}},
        "slicing": {"mode": "time-uniform", "h": 0.5, "n_samples": 3},
        "quad": {"rel_tol": 3e-3, "max_terms": 8}}))
    out = {}
    for name, flag in (("key", []), ("flag-3", ["--seed", "3"]),
                       ("flag-0", ["--seed", "0"])):
        assert run_cli("certify", "--config", str(cfg), *flag,
                       "--out", str(tmp_path / name)) == 0
        out[name] = (tmp_path / name / "certificates.json").read_bytes()
    assert out["key"] == out["flag-3"] != out["flag-0"]


# slicing.r = -1 in both slicing modes: certify built its time-slice
# problem on [0, t) whatever the slicing said, so the measure below 0 was
# dropped from eta and from the series
_SLICINGS_BELOW_ZERO = {
    "time-uniform": {"mode": "time-uniform", "h": 0.5, "r": -1.0},
    "intervals": {"mode": "intervals",
                  "intervals": [[0.5, 1.0], [0.0, 0.5], [-0.5, 0.0],
                                [-1.0, -0.5]]},
}


def _certify_below_zero(tmp_path, mode, measure):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"name": "gaussian", "d": 1}, "measure": measure,
        "target": {"t": 1.0, "y": 0.0},
        "slicing": _SLICINGS_BELOW_ZERO[mode]}))
    code = run_cli("certify", "--config", str(cfg), "--out", str(tmp_path))
    return code, json.loads((tmp_path / "certificates.json").read_text())


@pytest.mark.parametrize("mode", sorted(_SLICINGS_BELOW_ZERO))
def test_certify_measures_eta_on_slices_below_zero(tmp_path, mode, capsys):
    # lambda = 2.5 on [-1, 0): four VALID certificates with eta = 0 before
    code, doc = _certify_below_zero(tmp_path, mode, {
        "density": {"kind": "const", "lambda": 2.5}, "support": [-1.0, 0.0]})
    assert code == 4
    assert doc["error"] == "local smallness fails"
    assert doc["eta"] == pytest.approx(2.5 * 0.5, rel=1e-3)
    assert "local smallness fails" in capsys.readouterr().err


@pytest.mark.parametrize("mode", sorted(_SLICINGS_BELOW_ZERO))
def test_certify_series_counts_the_measure_below_zero(tmp_path, mode):
    # lambda = 0.3 everywhere: the series ratio at s is exp(0.3 (1 - s)),
    # so slice I_j = [lo, hi) reads between exp(0.3 (1 - hi)) and
    # exp(0.3 (1 - lo)); slice 4 read exp(0.3) = 1.35 before
    code, doc = _certify_below_zero(tmp_path, mode, {
        "density": {"kind": "const", "lambda": 0.3}})
    assert code == 0
    bands = _SLICINGS_BELOW_ZERO["intervals"]["intervals"]
    for cert, (lo, hi) in zip(doc, bands):
        assert math.exp(0.3 * (1.0 - hi)) * (1 - 1e-3) <= \
            cert["measured_ratio"] <= math.exp(0.3 * (1.0 - lo)) * (1 + 1e-3)
        assert cert["status"] == "VALID"


# CLI arguments that ended in a traceback (a negative seed in default_rng
# or Philox, no samples, an empty or non-positive window ladder), for
# --windows 0, in k(0) = 0.0, or that were accepted and changed nothing
BAD_ARGS = {
    "certify-negative-seed": (["certify", "--config",
                               str(FIXTURES / "certify_kappa.json"),
                               "--seed", "-1"], "non-negative integer"),
    "kato-negative-seed": (["kato", "--seed", "-1"], "non-negative integer"),
    "3g-negative-seed": (["3g", "--seed", "-1", "--samples", "10"],
                         "non-negative integer"),
    "3g-zero-samples": (["3g", "--samples", "0"], "at least 1"),
    "3g-negative-samples": (["3g", "--samples", "-5"], "at least 1"),
    # 1e12 samples ended in a numpy _ArrayMemoryError traceback
    "3g-samples-past-limit": (["3g", "--samples", "1000000000000"],
                              "argument --samples: must be at least 1 and "
                              "at most 1000000"),
    "kato-negative-window": (["kato", "--windows", "0.5,-0.25"],
                             "finite and positive"),
    "kato-nan-window": (["kato", "--windows", "nan"], "finite and positive"),
    "kato-zero-window": (["kato", "--windows", "0"], "finite and positive"),
    # windows outside spacetime.KATO_WINDOWS stay rejected as CLI input;
    # the closed form itself holds at every finite h > 0
    "kato-huge-window": (["kato", "--windows", "1e300,1"],
                         "finite and positive, in [1e-12, 1e+12]"),
    "kato-tiny-window": (["kato", "--windows", "1e-300,1"],
                         "finite and positive, in [1e-12, 1e+12]"),
    "kato-unresolved-window": (["kato", "--windows", "1e-14"],
                               "finite and positive, in [1e-12, 1e+12]"),
    # series, oracle-check and weyl draw no random numbers
    "series-seed": (["series", "--config",
                     str(FIXTURES / "series_atomless.json"), "--seed", "3"],
                    "unrecognized arguments: --seed"),
    "oracle-check-seed": (["oracle-check", "--seed", "3"],
                          "unrecognized arguments: --seed"),
    "weyl-seed": (["weyl", "--seed", "3"], "unrecognized arguments: --seed"),
    # discrete.path and the default quadrature tolerance are the only
    # ways to set what these set
    "certify-discrete": (["certify", "--config",
                          str(FIXTURES / "certify_discrete.json"),
                          "--discrete",
                          str(FIXTURES / "discrete_eta05.json")],
                         "unrecognized arguments: --discrete"),
    "oracle-check-config": (["oracle-check", "--config",
                             str(FIXTURES / "series_atomless.json")],
                            "unrecognized arguments: --config"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGS))
def test_bad_argument_exit_2_with_message(case, tmp_path, capsys):
    argv, message = BAD_ARGS[case]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_NUMBERS = hst.one_of(
    hst.integers(-10, 10 ** 6),
    hst.floats(allow_nan=True, allow_infinity=True),
    hst.sampled_from([0, -1, 0.0, -0.0, float("nan"), float("inf"),
                      -float("inf")]))


@given(max_terms=_NUMBERS, rel_tol=_NUMBERS,
       s=hst.lists(_NUMBERS, max_size=3), x=hst.lists(_NUMBERS, max_size=3),
       seed=_NUMBERS, t=_NUMBERS, y=_NUMBERS, u=_NUMBERS, eta=_NUMBERS)
@settings(max_examples=200, deadline=None)
def test_load_config_rejects_or_meets_invariants(tmp_path_factory, max_terms,
                                                 rel_tol, s, x, seed, t, y,
                                                 u, eta):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps({
        "measure": {"atoms": [{"u": u, "eta": eta}]},
        "target": {"t": t, "y": y}, "samples": {"s": s, "x": x},
        "quad": {"rel_tol": rel_tol, "max_terms": max_terms},
        "seed": seed}))
    try:
        cfg = cli.load_config(path)
    except cli.ConfigError:
        return
    assert isinstance(cfg.max_terms, int) and cfg.max_terms >= 1
    assert 0.0 < cfg.quad_tol < 1.0
    assert cfg.sample_s.shape == cfg.sample_x.shape == (len(s),)
    assert len(s) >= 1
    assert np.isfinite(cfg.sample_s).all() and np.isfinite(cfg.sample_x).all()
    assert isinstance(cfg.seed, int) and cfg.seed >= 0
    assert math.isfinite(cfg.target_t) and math.isfinite(cfg.target_y)
    atom, = cfg.measure.atoms
    assert math.isfinite(atom.time) and 0.0 < atom.weight < math.inf


def test_series_with_every_point_past_a_far_target(tmp_path):
    # t - 1e-9 rounds to t = -1e300, and the engine's window then ended in
    # a "need s_min < t" traceback; every point lies past the target
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SERIES_CASE,
                               "target": {"t": -1e300, "y": 0.0},
                               "measure": {"density": {"kind": "const",
                                                       "lambda": 0.5}}}))
    assert run_cli("series", "--config", str(cfg), "--out",
                   str(tmp_path)) == 0
    row = (tmp_path / "series.csv").read_text().splitlines()[1].split(",")
    assert row[2:4] == ["0.0", "0.0"] and row[-1] == "converged"


NARROW_PANELS = {   # kernel, measure, closed-form ratio at s (t = 1, y = 0)
    "gaussian-atoms-one-ulp-apart": (
        "gaussian", {"atoms": [{"u": 0.35, "eta": 0.4},
                               {"u": 0.35000000000000003, "eta": 0.3}]},
        lambda s: 1.82),
    "gaussian-support-one-ulp-past-an-atom": (
        "gaussian", {"density": {"kind": "const", "lambda": 0.3},
                     "support": [0.0, 0.5000000000000001],
                     "atoms": [{"u": 0.5, "eta": 0.4}]},
        lambda s: math.exp(0.3 * (0.5 - s)) * 1.4),
    # its accuracy is that of the Cauchy bridge rule near the target
    "cauchy-atom-one-ulp-before-the-target": (
        "cauchy", {"density": {"kind": "const", "lambda": 0.3},
                   "atoms": [{"u": 0.9999999999999999, "eta": 0.4}]},
        None),
}


@pytest.mark.parametrize("case", sorted(NARROW_PANELS))
def test_series_on_a_panel_narrower_than_its_time_grid(case, tmp_path,
                                                        monkeypatch):
    # the panel's evenly spaced time nodes repeat, and its spline's
    # not-a-knot solve ended in "LinAlgError: Singular matrix" (exit 1)
    kernel, measure, truth = NARROW_PANELS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"name": kernel, "d": 1}, "measure": measure,
        "target": {"t": 1.0, "y": 0.0},
        "samples": {"s": [0.0, 0.1], "x": [0.3, -0.6]}}))
    results = []
    batch = pt.series_batch

    def capture(*args, **kwargs):         # the error bars the CSV drops
        out = batch(*args, **kwargs)
        results.extend(out)
        return out
    monkeypatch.setattr(pt, "series_batch", capture)
    assert run_cli("series", "--config", str(cfg), "--out",
                   str(tmp_path)) == 0
    rows = [row.split(",") for row in
            (tmp_path / "series.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(results) == 2
    for row, r in zip(rows, results):
        assert math.isfinite(float(row[4])) and row[-1] == "converged"
        if truth is not None:
            # atoms alone are multiplied in: no quadrature error, only
            # the rounding of prod(1 + eta) p / p
            want = truth(float(row[0]))
            assert abs(float(row[4]) - want) / want <= \
                max(r.quad_error_estimate, 4 * sys.float_info.epsilon), row


# one key of a bundled fixture at a time: set to a value of another JSON
# type, to a number at an edge, or deleted
_FUZZ_FIXTURES = {
    path.stem: json.loads(path.read_text())
    for path in sorted(FIXTURES.glob("*.json"))
    if path.name != "discrete_eta05.json"}
_DELETE = object()
_FUZZ_VALUES = [None, True, "x", [], {}, -1, 0, 0.5, 2.5, 1e300, -1e300,
                float("nan"), float("inf"), [0.5, 1.0], {"a": 1}, _DELETE]


def _key_paths(node, prefix=()):
    """Every key path into a JSON document, lists included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@hst.composite
def _fixture_mutations(draw):
    name = draw(hst.sampled_from(sorted(_FUZZ_FIXTURES)))
    doc = json.loads(json.dumps(_FUZZ_FIXTURES[name]))
    path = draw(hst.sampled_from(list(_key_paths(doc))))
    value = draw(hst.sampled_from(_FUZZ_VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@given(doc=_fixture_mutations(),
       command=hst.sampled_from(["series", "certify", "kato"]))
@settings(max_examples=60, deadline=None)
def test_fixture_mutations_exit_cleanly(tmp_path_factory, doc, command):
    # no traceback, and an exit code the CLI documents; numpy's overflow
    # warnings on values such as 1e300 are not what this checks (the CLI
    # prints them and goes on), so they are not raised here
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "discrete_eta05.json").write_text(
        (FIXTURES / "discrete_eta05.json").read_text())
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run_cli(command, "--config", str(cfg), "--out",
                       str(tmp / "out"))
    assert code in (0, 2, 3, 4)
    if (tmp / "out" / "certificates.json").exists():
        _strict_json((tmp / "out" / "certificates.json").read_text())
    # a sum no error bar covers is never labelled converged
    if command == "series" and code == 0:
        for row in (tmp / "out" / "series.csv").read_text().splitlines()[1:]:
            fields = row.split(",")
            assert math.isfinite(float(fields[3])) or \
                fields[-1] != "converged", row


def test_series_overflowing_density_is_truncated(tmp_path):
    # lambda = 1e300 overflows the second term: p_mu = inf had read
    # converged, and a certificate on such a series would be VALID
    doc = json.loads((FIXTURES / "kato_gauss_atom.json").read_text())
    doc["measure"]["density"]["lambda"] = 1e300
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_cli("series", "--config", str(cfg), "--out",
                       str(tmp_path)) == 0
    rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        fields = row.split(",")
        assert fields[3:5] == ["inf", "inf"] and fields[-1] == "truncated"


def test_certificates_json_writes_non_finite_numbers_as_strings(tmp_path):
    # lambda = 1e300 overflows the series: certificates.json held NaN,
    # Infinity and -Infinity; it now holds the strings the CSV writes
    doc = json.loads((FIXTURES / "certify_time_uniform.json").read_text())
    doc["measure"]["density"]["lambda"] = 1e300
    doc["slicing"]["eta"] = 0.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_cli("certify", "--config", str(cfg), "--out",
                       str(tmp_path)) == 4
    certs = _strict_json((tmp_path / "certificates.json").read_text())
    written = {c[k] for c in certs for k in ("measured_ratio", "margin")} | \
        {c["truncation"][k] for c in certs
         for k in ("quad_error", "tail_estimate")}
    assert {"nan", "inf", "-inf"} <= written
    rows = (tmp_path / "certificates.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4:6] for row in rows] == \
        [[c["measured_ratio"], c["margin"]] for c in certs]


def test_certify_inf_over_inf_state_fails_smallness(tmp_path, capsys):
    # f = +inf at a state where K_j f = +inf: eta had read 0.25, dropping
    # the NaN slice ratio, and certified against it; it reads inf and
    # exits 4, with eta written as a string JSON can hold
    K = mk.MatrixKernel([[0.25, 0.0], [0.25, 0.25]])
    sets = {"A": mk.StateSet.from_indices(2, [0]),
            "B": mk.StateSet.from_indices(2, [0, 1])}
    mk.save_discrete_problem(tmp_path / "problem.json", K, sets,
                             [1.0, np.inf])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"discrete": {"path": "problem.json",
                                            "chain": ["A", "B"]}}))
    assert run_cli("certify", "--config", str(cfg), "--out",
                   str(tmp_path / "out")) == 4
    assert _strict_json((tmp_path / "out" / "certificates.json").read_text()) \
        == {"error": "local smallness fails", "eta": "inf"}
    assert "eta = inf >= 1" in capsys.readouterr().err


def test_kato_rejects_stable_potential(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_INPUTS["stable-potential"][0]))
    assert run_cli("kato", "--config", str(cfg), "--windows", "0.5") == 2
    assert "'stable-potential:1.0'" in capsys.readouterr().err


def test_kato_rejects_cone_kernel(tmp_path, capsys):
    # the symmetric peak rule read k(h) = 4 sqrt(h / pi) 1.7 % low here,
    # the cone kernel living on one side of the endpoint
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"name": "kappa"}, "measure": {
        "density": {"kind": "const", "lambda": 1.0}}}))
    assert run_cli("kato", "--config", str(cfg), "--out",
                   str(tmp_path)) == 2
    assert "kato cannot take kernel 'kappa'" in capsys.readouterr().err
    assert not (tmp_path / "kato.csv").exists()


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
    # the measured slice constant is above one: no certificate exists (this
    # branch once wrote HYPOTHESIS_FAIL certificates with "bound": Infinity,
    # which is not JSON)
    code = run_cli("certify", "--config",
                   str(FIXTURES / "certify_atom_violation.json"),
                   "--out", str(tmp_path))
    assert code == 4
    doc = json.loads((tmp_path / "certificates.json").read_text())
    assert doc["error"] == "local smallness fails" and doc["eta"] > 1.0
    assert not (tmp_path / "certificates.csv").exists()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certify_kappa_sampled_eta_below_analytic(seed):
    # the diagonal-level branch certifies with the closed-form eta, so
    # a sampled sup over each strip (12 Halton points and two refinement
    # rounds, seeded like certify) must stay below it
    from kpert import bounds as bnd
    from kpert import perturbation as pt
    cfg = cli.load_config(FIXTURES / "certify_kappa.json", seed)
    prob = pt.KappaSliceProblem(
        cfg.slicing["c"], cfg.slicing["p"], cfg.target_t, cfg.target_y,
        eta_target=cfg.slicing["eta_target"], quad_tol=cfg.quad_tol,
        seed=cfg.seed, max_terms=cfg.max_terms)
    const = bnd.estimate_constants(prob, np.random.default_rng(cfg.seed),
                                   n_samples=12)
    assert len(const.per_slice_eta) == prob.k == 4
    assert all(0.0 < eta <= prob.analytic_eta for eta in const.per_slice_eta)


def test_certify_kappa_fixture_exit_0(tmp_path):
    code = run_cli("certify", "--config",
                   str(FIXTURES / "certify_kappa.json"),
                   "--out", str(tmp_path))
    assert code == 0
    certs = json.loads((tmp_path / "certificates.json").read_text())
    assert all(c["status"] == "VALID" for c in certs)
    assert len(certs) == 4


def test_certify_kappa_samples_every_thin_strip(tmp_path):
    # at c = 0.2 strips 3, 4 and 124-126 of 126 are thin where they meet
    # the box [0, t) x [0, y); drawn over the whole square and kept where
    # they fell in the strip, no Halton point landed there, and those five
    # read INCONCLUSIVE with 0 samples (exit 4).  Each strip now maps its
    # own Halton pairs onto its levels.
    doc = json.loads((FIXTURES / "certify_kappa.json").read_text())
    doc["slicing"]["c"] = 0.2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("certify", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 0
    certs = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert len(certs) == 126
    assert all(c["status"] == "VALID" and c["samples"] == 6 for c in certs)
    assert all(c["measured_ratio"] <= c["bound"] for c in certs)


def test_kappa_strip_points_lie_in_their_strip():
    from kpert import perturbation as pt
    prob = pt.KappaSliceProblem(0.2, 0.1, 1.0, 1.0)
    assert prob.k == 126
    for j in (1, 3, 4, 63, 124, 125, 126):
        a_lo, a_hi = prob.levels[j], prob.levels[j - 1]
        pts = prob.slice_points(j, n=6)
        s, x = pts[:, 0], pts[:, 1]
        assert len(pts) == 6
        assert np.all((a_lo <= s + x) & (s + x < a_hi))
        assert np.all((0.0 <= s) & (s < 1.0) & (0.0 <= x) & (x < 1.0))
    # a strip that meets the box in no level draws nothing
    assert prob._sample_strip(2.0, 2.5, 6, 1).shape == (0, 2)


# eta >= 1 on every branch; the diagonal-level branch once exited 4 with
# no output and no message, the time-uniform one wrote certificates
SMALLNESS_FAILS = {
    "time-uniform": {"measure": {"atoms": [{"u": 0.5, "eta": 1.5}]},
                     "slicing": {"mode": "time-uniform", "h": 0.5,
                                 "n_samples": 6}},
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
    # matrix_kernels (multi-atom-L3 7.999999915000639 -> 7.999999917838267),
    # when the engine summed Gaussian bridges in closed form (the three
    # series rows, each by less than its stated error), and when the atom
    # operator's transfer took the engine's bridge rule, closed-form for
    # the Gaussian (multi-atom-L3 7.999999917838267 -> 7.999999991042986),
    # and when the series multiplied its atoms in exactly (single-atom
    # 1.6999999996604371 -> 1.7)
    assert hashlib.sha256((tmp_path / "oracles.csv").read_bytes()).hexdigest() \
        == ("f46d7bc1f1937b34fe618fcd98a9dcac"
            "df959decc87d471ad3f816f406c95fa2")


def test_kato_command(tmp_path):
    assert run_cli("kato", "--windows", "0.5,0.25", "--out",
                   str(tmp_path)) == 0
    rows = (tmp_path / "kato.csv").read_text().strip().splitlines()
    assert rows[0] == "h,k_h"
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals[0] > vals[1]


# The rows of the window modulus that kato printed wrong with exit 0
# while it took a sampled sup over windows starting at s = 0: 0.25 and
# 0.125 for the atom fixture, 0 on a time support, and finite values
# where q grows (eps = 2: 0.326 at h = 0.125) or the time integral of
# r^-a diverges (Cauchy d = 2, a = 1.5: 43,764.65 at every h)
KATO_TRUTHS = {
    "gauss-atom": (json.loads((FIXTURES / "kato_gauss_atom.json")
                              .read_text()), {0.25: 1.05, 0.125: 0.925}),
    "time-support": ({"kernel": {"name": "gaussian"},
                      "measure": {"density": {"kind": "const",
                                              "lambda": 1.0},
                                  "support": [0.5, 1.0]}},
                     {0.5: 1.0, 0.25: 0.5, 0.125: 0.25}),
    "gaussian-power-eps-2": ({"kernel": {"name": "gaussian"},
                              "measure": {"density": {"kind": "power",
                                                      "eps": 2.0}}},
                             {0.125: math.inf}),
    "cauchy-d2-power-eps-minus-half": (
        {"kernel": {"name": "cauchy", "d": 2},
         "measure": {"density": {"kind": "power", "eps": -0.5}}},
        {1.0: math.inf, 0.5: math.inf, 0.125: math.inf}),
    # both ends of the --windows range
    "cauchy-d2-power-window-ends": (
        {"kernel": {"name": "cauchy", "d": 2},
         "measure": {"density": {"kind": "power", "eps": 0.5}}},
        {h: _kato_corner("cauchy", 2, 0.5, h) for h in (1e12, 1e-12)}),
}


@pytest.mark.parametrize("case", sorted(KATO_TRUTHS))
def test_kato_prints_the_true_window_modulus(case, tmp_path):
    doc, truth = KATO_TRUTHS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("kato", "--config", str(cfg), "--windows",
                   ",".join(map(repr, truth)), "--out", str(tmp_path)) == 0
    rows = (tmp_path / "kato.csv").read_text().splitlines()
    assert rows[0] == "h,k_h"
    got = {float(h): float(k) for h, k in (r.split(",") for r in rows[1:])}
    assert list(got) == sorted(truth, reverse=True)
    for h, k in truth.items():
        assert got[h] == pytest.approx(k, rel=1e-12, abs=1e-12), h


def test_kato_rejects_a_density_with_no_closed_form(tmp_path, capsys):
    # the corner density q0 on the Gaussian kernel was accepted, though it
    # is not time-invariant and nothing showed that s = 0 held the sup
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"name": "gaussian"}, "measure": {
        "density": {"kind": "q0", "c": 0.1, "p": 0.25}}}))
    assert run_cli("kato", "--config", str(cfg), "--out",
                   str(tmp_path)) == 2
    assert "no closed form for density kind 'q0'" in capsys.readouterr().err
    assert not (tmp_path / "kato.csv").exists()


def test_kato_density_takes_the_kernel_dimension(tmp_path):
    # a const density without "dim" was one-dimensional, and the d = 2
    # kernel ended in a numpy broadcast traceback
    cfg = tmp_path / "cfg.json"
    doc = {"kernel": {"name": "cauchy", "d": 2},
           "measure": {"density": {"kind": "const", "lambda": 0.5}}}
    cfg.write_text(json.dumps(doc))
    assert run_cli("kato", "--config", str(cfg), "--windows", "0.5",
                   "--out", str(tmp_path / "a")) == 0
    doc["measure"]["density"]["dim"] = 2
    cfg.write_text(json.dumps(doc))
    assert run_cli("kato", "--config", str(cfg), "--windows", "0.5",
                   "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "kato.csv").read_bytes() == \
        (tmp_path / "b" / "kato.csv").read_bytes()


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


def test_reproduce_outputs_deterministic(tmp_path, numpy_avx2):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("reproduce", "--only", "determinism", "--seed", "7",
                       "--out", str(out)) == 0
    artifacts = (a / "artifacts.txt").read_bytes()
    assert artifacts == (b / "artifacts.txt").read_bytes()
    assert hashlib.sha256(artifacts).hexdigest() == (
        REPRODUCE_ARTIFACTS_AVX2 if numpy_avx2 else REPRODUCE_ARTIFACTS)
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


def test_cli_import_leaves_acceptance_unloaded():
    # a fresh interpreter: only reproduce and oracle-check read the
    # acceptance table, so no other command pays for importing it
    code = "import sys, kpert.cli; print('kpert.acceptance' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kpert.cli", "weyl", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
