"""Golden run of all twelve CLI commands on small inputs.

The pinned values were recorded before the Moebius, winding, bisection and
layering code was consolidated; they hold every command's report (and the
determinant values of the `zeta` CSV) to that behaviour. The determinant zeros
of `zeros` and of `delta`'s zeta_zero were re-recorded when one Chebyshev proxy
replaced the sign scans; each moved by less than a tenth of its tol.
Integers, booleans and strings must match exactly, floats to GOLDEN_REL_TOL
relative.
"""

import csv
import json
import math

import pytest

from schottky_zeta.cli import main
from schottky_zeta.zeta import CHEB_TAIL_TOL

GOLDEN_REL_TOL = 1e-10

ARGS = {
    "validate": ["--group", "gamma_m:2"],
    "words": ["--group", "gamma_m:2", "--length", "3"],
    "partition": ["--group", "gamma_m:2", "--tau", "0.015625"],
    "distortion": ["--group", "gamma_m:2", "--max-len", "3", "--taus", "0.015625,0.0078125",
                   "--delta", "0.274882"],
    "zeta": ["--group", "gamma_m:2", "--rep", "lambda_p0:5", "--re-lo", "0.5", "--re-hi", "1.0",
             "--im", "0.5", "--points", "3", "--refined", "--tau", "0.03125", "--n-basis", "8"],
    "zeros": ["--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4", "--tol", "1e-6",
              "--n-basis", "12"],
    "delta": ["--group", "gamma_m:2", "--tol", "1e-7", "--n-basis", "12"],
    "np": ["--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--n-basis", "8"],
    "trace-check": ["--group", "gamma_m:2", "--max-len", "3", "--pmin", "5", "--pmax", "13"],
    "charsum": ["--d", "5,8,-3", "--x", "1e4,3e4"],
    "hs-sum": ["--group", "gamma_m:2", "--tau", "0.03125", "--s", "0.9+0.2j", "--x", "12"],
    "jensen": ["--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.03125",
               "--K", "2", "--n-basis", "8", "--theta-samples", "64", "--bound-tol", "0.5"],
}

GOLDEN = {'charsum': {'records': [{'bound_ratio': 0.00199074355826903,
                          'd': -3,
                          'prime_count': 560,
                          'sum': 21.156528615616566,
                          'unweighted': 2.0,
                          'x': 10000.0},
                         {'bound_ratio': 0.0005954050469641868,
                          'd': -3,
                          'prime_count': 1491,
                          'sum': -13.420201579111893,
                          'unweighted': -1.0,
                          'x': 30000.0},
                         {'bound_ratio': 0.004642114060424475,
                          'd': 5,
                          'prime_count': 560,
                          'sum': 54.3441161839053,
                          'unweighted': 6.0,
                          'x': 10000.0},
                         {'bound_ratio': 0.0005250601685666485,
                          'd': 5,
                          'prime_count': 1491,
                          'sum': -12.91828697054418,
                          'unweighted': -1.0,
                          'x': 30000.0},
                         {'bound_ratio': 0.01260630462499415,
                          'd': 8,
                          'prime_count': 560,
                          'sum': -160.678919559431,
                          'unweighted': -18.0,
                          'x': 10000.0},
                         {'bound_ratio': 0.00039556244687728606,
                          'd': 8,
                          'prime_count': 1491,
                          'sum': -10.514913748553877,
                          'unweighted': -1.0,
                          'x': 30000.0}]},
 'delta': {'bisection': 0.27488203901052477,
           'delta': 0.27488203901052477,
           'group': 'gamma_m:2',
           'zeta_zero': 0.2748820624969571},
 'distortion': {'contraction_exponent': 0.07216494845360825,
                'delta_used': 0.274882,
                'deriv_ratio': [0.5833591667183334, 1.714209799128494],
                'max_len': 3,
                'mirror_ratio': [0.24473698944598418, 4.0860190454402465],
                'norm_sqrt_tau': [2.0077973005261263, 90.50975430858269],
                'product_ratio': [0.44436978240695574, 20.59124577800109],
                'taus': [0.015625, 0.0078125],
                'ups_vs_deriv': [0.4048844652560542, 23.67775534063131],
                'y_count_band': [3.1879656729038715, 4.215857198041076]},
 'hs-sum': {'decomposed': 0.03924721865235024,
            'diagonal': 0.03828909035190312,
            'direct': 0.03924721865235023,
            'fallback_pairs': 0,
            'off_diagonal': 0.0009581283004471111,
            'primes': [7, 11],
            's': '(0.9+0.2j)',
            'tau': 0.03125,
            'x': 12.0},
 'jensen': {'K': 2.0, 'bound': 110.6924782235884, 'p': 5, 'sigma': 0.2, 'tau': 0.03125},
 'np': {'count': 0, 'p': 5, 'sigma': 0.2},
 'partition': {'max_depth': 3, 'tau': 0.015625, 'y_size': 10, 'z_size': 24},
 'trace-check': {'per_prime': [{'closure_size': 120,
                                'mismatches': 0,
                                'p': 5,
                                'surjective': True,
                                'words_checked': 52},
                               {'closure_size': 336,
                                'mismatches': 0,
                                'p': 7,
                                'surjective': True,
                                'words_checked': 52},
                               {'closure_size': 1320,
                                'mismatches': 0,
                                'p': 11,
                                'surjective': True,
                                'words_checked': 52},
                               {'closure_size': 2184,
                                'mismatches': 0,
                                'p': 13,
                                'surjective': True,
                                'words_checked': 52}],
                 'primes': [5, 7, 11, 13],
                 'total_mismatches': 0},
 'validate': {'label': 'gamma_m:2', 'm': 2, 'ok': True, 'violations': []},
 'words': {'count': 36, 'length': 3},
 'zeros': {'n_basis': 12,
           'region': ['0.1', '0.4'],
           'proxy_nodes': 33,
           'rep': 'trivial',
           'tol': 1e-06,
           'zeros': [{'im_s': 0.0,
                      'lambda': 0.19932191421437617,
                      'multiplicity': 1,
                      're_s': 0.2748820624969573}]},
 'zeta': {'points': 3, 'refined': True, 'rep': 'lambda_p0:5'}}

# The zeta report holds no numbers; its CSV rows carry the determinants.
GOLDEN_ZETA_CSV = [[0.5, 0.5, 1.0066196992692669, 0.030907349736349916, 1.0070940786364868],
 [0.75, 0.5, 1.0008565403117833, 0.0018219528263106728, 1.0008581986460288],
 [1.0, 0.5, 1.0000700348103668, 0.00011830073492708867, 1.0000700418074087]]


def _assert_matches(got, want, where="report"):
    if isinstance(want, float):
        assert isinstance(got, float), (where, got, want)
        assert math.isclose(got, want, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (where, got, want)
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def run_command(tmp_path, command):
    assert main(["--out", str(tmp_path), command, *ARGS[command]]) == 0
    name = command.replace("-", "_")
    return json.loads((tmp_path / f"{name}.json").read_text())["report"]


@pytest.mark.parametrize("command", sorted(ARGS))
def test_golden_report(tmp_path, command):
    report = run_command(tmp_path, command)
    if command == "zeros":
        # the proxy's tail sits at rounding level: it is held to its bound, not to its bits
        assert 0 <= report.pop("proxy_tail") < CHEB_TAIL_TOL
    _assert_matches(report, GOLDEN[command])
    if command == "zeta":
        with open(tmp_path / "zeta.csv", newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        _assert_matches(rows, GOLDEN_ZETA_CSV, "zeta.csv")
