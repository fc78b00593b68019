import csv
import json
import math

import pytest

from schottky_zeta import cli, congruence, gamma_m, zeta
from schottky_zeta.cli import main
from schottky_zeta.congruence import _closure_size, closure_size, rep_lambda_p


def run(tmp_path, *args):
    return main(["--out", str(tmp_path), *args])


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_validate_ok(tmp_path):
    assert run(tmp_path, "validate", "--group", "gamma_m:2") == 0
    payload = read_json(tmp_path, "validate.json")
    assert payload["report"]["ok"]
    assert payload["version"]
    assert payload["config"]["group"] == "gamma_m:2"


def test_validate_rejects_an_empty_group(tmp_path, capsys):
    empty = json.dumps({"m": 0, "disks": [], "generators": []})
    assert run(tmp_path, "validate", "--group", empty) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "GroupValidationError"
    assert err["violations"] == ["m must be >= 1, got 0"]
    assert not (tmp_path / "validate.csv").exists()


def test_validate_rejects_bad_group(tmp_path, capsys):
    bad = {
        "m": 1,
        "disks": [{"center": 0.0, "radius": 2.0}, {"center": 1.0, "radius": 2.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps(bad))
    assert run(tmp_path, "validate", "--group", str(spec_file)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["violations"]



@pytest.mark.parametrize("where, value, violation", [
    ("m", 1.5, "m must be an integer, got 1.5"),
    ("generator", 4.7, "generator 1 entry (1, 1) must be an integer, got 4.7"),
])
def test_validate_rejects_a_non_integer_entry(tmp_path, capsys, where, value, violation):
    spec = {
        "m": 1,
        "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    if where == "m":
        spec["m"] = value
    else:
        spec["generators"][0][0][0] = value
    assert run(tmp_path, "validate", "--group", json.dumps(spec)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "GroupValidationError"
    assert err["violations"] == [violation]
    assert not (tmp_path / "validate.csv").exists()

def test_validate_rejects_a_nonpositive_radius(tmp_path, capsys):
    spec = {
        "m": 1,
        "disks": [{"center": 4.0, "radius": 0.0}, {"center": -4.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    assert run(tmp_path, "validate", "--group", json.dumps(spec)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "GroupValidationError"
    assert err["violations"] == ["disk 1 has nonpositive radius 0.0"]
    assert not (tmp_path / "validate.csv").exists()


def test_delta_command_refuses_methods_that_disagree(tmp_path, capsys, monkeypatch, delta2):
    monkeypatch.setattr(zeta, "delta_from_zeta", lambda group, tol, n_basis: delta2 + 1.0)
    assert run(tmp_path, "delta", "--group", "gamma_m:2", "--tol", "1e-6") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConvergenceError"
    assert err["message"].startswith("delta methods disagree: 0.2748")
    assert not (tmp_path / "delta.csv").exists()


def test_inline_group_spec(tmp_path):
    spec = {
        "m": 1,
        "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    assert run(tmp_path, "validate", "--group", json.dumps(spec)) == 0


def test_words_csv(tmp_path):
    assert run(tmp_path, "words", "--group", "gamma_m:2", "--length", "2") == 0
    lines = (tmp_path / "words.csv").read_text().splitlines()
    assert lines[0] == "word,trace,frobenius_norm,interval_length"
    assert len(lines) == 1 + 12
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["word"] == "1.1"
    assert row["trace"] == "62"


def test_partition_report(tmp_path):
    assert run(tmp_path, "partition", "--group", "gamma_m:2", "--tau", "0.015625") == 0
    payload = read_json(tmp_path, "partition.json")
    assert payload["report"]["z_size"] == 24
    rows = (tmp_path / "partition.csv").read_text().splitlines()
    assert rows[0].startswith("set,word,")


def test_delta_command(tmp_path):
    assert run(tmp_path, "delta", "--group", "gamma_m:2", "--tol", "1e-6") == 0
    payload = read_json(tmp_path, "delta.json")
    assert payload["report"]["delta"] == pytest.approx(0.27488, abs=1e-3)


def test_zeros_command(tmp_path):
    assert run(tmp_path, "zeros", "--group", "gamma_m:2",
               "--lo", "0.1", "--hi", "0.4", "--tol", "1e-6") == 0
    lines = (tmp_path / "zeros.csv").read_text().splitlines()
    assert lines[0] == "re_s,im_s,multiplicity,lambda"
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == pytest.approx(0.27488, abs=1e-4)


def test_zeros_chooses_n_unless_it_is_given(tmp_path):
    argv = ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4", "--tol", "1e-6"]
    assert run(tmp_path / "chosen", *argv) == 0
    assert run(tmp_path / "fixed", *argv, "--n-basis", "16") == 0
    chosen, fixed = (read_json(tmp_path / name, "zeros.json") for name in ("chosen", "fixed"))
    assert (chosen["config"]["n_basis"], fixed["config"]["n_basis"]) == (None, 16)
    assert chosen["report"]["n_basis"] in (8, 12, 16)
    assert fixed["report"]["n_basis"] == 16
    (zero,), (zero16,) = chosen["report"]["zeros"], fixed["report"]["zeros"]
    assert zero["multiplicity"] == zero16["multiplicity"] == 1
    assert abs(zero["re_s"] - zero16["re_s"]) <= 1e-6


def test_zeta_refuses_a_determinant_past_float64(tmp_path, capsys):
    # log|det| is 357.2 + 355.8 over the two symmetry blocks, past float64's 709.8
    assert run(tmp_path, "zeta", "--group", "gamma_m:2", "--rep", "lambda_p0:11", "--n-basis", "8",
               "--re-lo", "-2", "--re-hi", "-1.5", "--im", "3", "--points", "2") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "OverflowError"
    assert err["message"] == "det(1 - L_s) overflows float64 at s = (-2+3j)"
    assert not (tmp_path / "zeta.csv").exists()
    assert not (tmp_path / "zeta.json").exists()


@pytest.mark.parametrize("argv", [
    ["delta", "--group", "gamma_m:2", "--tol", "0"],
    ["delta", "--group", "gamma_m:2", "--tol=-1e-8"],
    ["delta", "--group", "gamma_m:2", "--tol", "1e-300"],
    ["delta", "--group", "gamma_m:2", "--tol", "inf"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4", "--tol", "0"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4", "--tol", "inf"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.4", "--hi", "0.1"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.3", "--hi", "0.3"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "inf"],
    ["zeros", "--group", "gamma_m:2", "--lo=-inf", "--hi", "0.4"],
    ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5", "--re-hi", "1.0", "--points", "-3"],
    ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5", "--re-hi", "1.0", "--points", "1"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--theta-samples", "0"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--theta-samples", "-4"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--K", "0"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--K", "-1"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--K", "inf"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "nan", "--tau", "0.015625"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--bound-tol", "0"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--bound-tol", "-1"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--bound-tol", "inf"],
    ["words", "--group", "gamma_m:2", "--length", "-1"],
    ["words", "--group", "gamma_m:2", "--length", "40"],
    ["trace-check", "--group", "gamma_m:2", "--max-len", "40"],
    ["trace-check", "--group", "gamma_m:2", "--max-len", "0"],
    ["trace-check", "--group", "gamma_m:2", "--pmin", "50", "--pmax", "13"],
    ["trace-check", "--group", "gamma_m:2", "--pmin", "24", "--pmax", "28"],
    ["trace-check", "--group", "gamma_m:1", "--max-len", "2", "--pmin", "5", "--pmax", "47"],
    ["charsum", "--d", "5", "--x", "nan"],
    ["hs-sum", "--group", "gamma_m:2", "--tau", "0.015625", "--x", "nan"],
    ["distortion", "--group", "gamma_m:2", "--max-len", "0", "--delta", "0.274882"],
    ["distortion", "--group", "gamma_m:2", "--max-len", "2", "--delta", "nan"],
    ["distortion", "--group", "gamma_m:2", "--max-len", "2", "--taus", ",", "--delta", "0.274882"],
    ["np", "--group", "gamma_m:2", "--p", "5", "--sigma", "inf"],
    ["np", "--group", "gamma_m:2", "--p", "5", "--sigma", "nan"],
    ["np", "--group", "gamma_m:2", "--p", "7", "--sigma", "0.3", "--tol", "inf"],
    ["np", "--group", "gamma_m:2", "--p", "7", "--sigma", "0.3", "--tol", "0"],
    ["hs-sum", "--group", "gamma_m:2", "--tau", "0.015625", "--s", "nan", "--x", "60"],
    ["hs-sum", "--group", "gamma_m:2", "--tau", "0.015625", "--s", "inf", "--x", "60"],
    ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5", "--re-hi", "1.0", "--im", "nan"],
    ["zeta", "--group", "gamma_m:2", "--re-lo", "nan", "--re-hi", "1.0"],
    ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5", "--re-hi", "1.0", "--rep", "lambda_p0:209"],
    ["np", "--group", "gamma_m:2", "--p", "4", "--sigma", "0.15"],
    ["hs-sum", "--group", "gamma_m:2", "--tau", "0.015625", "--x=-5"],
    ["hs-sum", "--group", "gamma_m:2", "--tau", "0.015625", "--x", "1.5"],
    ["charsum", "--d", ",", "--x", "100"],
    ["charsum", "--d", "5", "--x", ","],
    ["np", "--group", "gamma_m:2", "--p", "x", "--sigma", "0.2"],
    ["np", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--no-such-flag"],
    ["np", "--group", "gamma_m:2", "--p", "5"],
    ["no-such-command"],
    ["--config"],
    ["zeta", "--group", "gamma_m:2", "--rep", "sym2", "--re-lo", "0.5", "--re-hi", "1.0"],
    ["validate", "--group", "no/such/group.json"],
    ["validate", "--group", "gamma_m:0"],
], ids=["delta-tol-0", "delta-tol-negative", "delta-tol-below-float-spacing", "delta-tol-inf",
        "zeros-tol-0", "zeros-tol-inf",
        "zeros-lo-above-hi", "zeros-lo-equals-hi", "zeros-hi-inf", "zeros-lo-minus-inf",
        "zeta-points-negative", "zeta-points-1", "jensen-theta-samples-0",
        "jensen-theta-samples-negative", "jensen-K-0", "jensen-K-negative", "jensen-K-inf",
        "jensen-sigma-nan", "jensen-bound-tol-0", "jensen-bound-tol-negative",
        "jensen-bound-tol-inf", "words-length-negative",
        "words-length-40", "trace-check-max-len-40", "trace-check-max-len-0",
        "trace-check-pmin-above-pmax", "trace-check-no-prime-in-range",
        "trace-check-no-surjective-prime", "charsum-x-nan",
        "hs-sum-x-nan", "distortion-max-len-0",
        "distortion-delta-nan", "distortion-taus-empty", "np-sigma-inf", "np-sigma-nan",
        "np-tol-inf", "np-tol-0",
        "hs-sum-s-nan", "hs-sum-s-inf", "zeta-im-nan", "zeta-re-lo-nan",
        "zeta-rep-composite-modulus", "np-p-composite", "hs-sum-x-negative",
        "hs-sum-no-prime-in-range", "charsum-d-empty", "charsum-x-empty",
        "np-p-not-an-int", "unknown-flag", "missing-required-flag", "unknown-command",
        "config-without-a-path", "zeta-unknown-rep", "unresolvable-group", "validate-gamma-m-0"])
def test_out_of_range_input_is_a_json_error(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error_type"] == "ValueError"
    assert not (tmp_path / f"{argv[0].replace('-', '_')}.csv").exists()


def test_zeros_reports_the_tolerance_it_was_given(tmp_path, capsys):
    argv = ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4", "--tol=-1"]
    assert run(tmp_path, *argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValueError"
    assert "-1.0" in err["message"] and "-0.25" not in err["message"]


@pytest.mark.parametrize("argv", [
    ["partition", "--group", "gamma_m:2", "--tau", "nan"],
    ["hs-sum", "--group", "gamma_m:2", "--tau", "nan", "--x", "60"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "nan"],
], ids=["partition-tau-nan", "hs-sum-tau-nan", "jensen-tau-nan"])
def test_nan_tau_is_a_json_error(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error_type"] == "PartitionError"
    assert not (tmp_path / f"{argv[0].replace('-', '_')}.csv").exists()


def test_jensen_refuses_a_non_surjective_prime(tmp_path, capsys):
    argv = ["jensen", "--group", "gamma_m:1", "--p", "5", "--sigma", "0.1", "--tau", "0.0625",
            "--K", "2"]
    assert run(tmp_path, *argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error_type"] == "SurjectivityError"
    assert "surjective" in err["message"]
    assert not (tmp_path / "jensen.csv").exists()


@pytest.mark.parametrize("argv, patched", [
    (["np", "--group", "gamma_m:1", "--p", "5", "--sigma", "0.1"], "delta"),
    (["hs-sum", "--group", "gamma_m:1", "--tau", "0.015625", "--x", "60"], "pair_integrals"),
], ids=["np", "hs-sum"])
def test_a_non_surjective_prime_is_one_refusal(tmp_path, capsys, monkeypatch, argv, patched):
    # gamma_m:1 reduces to a cyclic group at every p: refused before delta or any pair integral
    def unexpected(*args, **kwargs):
        raise AssertionError(f"{patched} computed for a non-surjective prime")

    monkeypatch.setattr(zeta, patched, unexpected)
    assert run(tmp_path, *argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "SurjectivityError"
    assert "surjective" in err["message"]
    assert not (tmp_path / f"{argv[0].replace('-', '_')}.csv").exists()


def test_zeta_takes_the_induced_rep(tmp_path):
    assert run(tmp_path, "zeta", "--group", "gamma_m:2", "--rep", "lambda_p:5", "--re-lo", "0.5",
               "--re-hi", "1.0", "--points", "2", "--n-basis", "4") == 0
    with open(tmp_path / "zeta.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    group = gamma_m(2)
    rep = rep_lambda_p(group, 5)
    for row, s in zip(rows, (0.5, 1.0)):
        assert float(row["re_s"]) == s
        assert complex(float(row["det_re"]), float(row["det_im"])) == zeta.zeta_det(group, s, rep, 4)


def test_zeros_csv_rows_are_the_report_zeros(tmp_path):
    assert run(tmp_path, "zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4",
               "--n-basis", "8") == 0
    zeros = read_json(tmp_path, "zeros.json")["report"]["zeros"]
    with open(tmp_path / "zeros.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(zeros) == 1
    for row, z in zip(rows, zeros):
        assert {k: float(v) for k, v in row.items()} == z
        assert z["lambda"] == z["re_s"] * (1 - z["re_s"])


def test_zeta_grid(tmp_path):
    assert run(tmp_path, "zeta", "--group", "gamma_m:2",
               "--re-lo", "0.5", "--re-hi", "1.0", "--points", "5") == 0
    lines = (tmp_path / "zeta.csv").read_text().splitlines()
    assert len(lines) == 6


def test_trace_check_command(tmp_path):
    assert run(tmp_path, "trace-check", "--group", "gamma_m:2",
               "--max-len", "2", "--pmin", "5", "--pmax", "11") == 0
    payload = read_json(tmp_path, "trace_check.json")
    assert payload["report"]["total_mismatches"] == 0
    assert payload["report"]["primes"] == [5, 7, 11]


def test_charsum_reproducible(tmp_path):
    args = ("charsum", "--d", "5,8", "--x", "10000")
    assert run(tmp_path, *args) == 0
    first = (tmp_path / "charsum.csv").read_bytes()
    assert run(tmp_path, *args) == 0
    assert (tmp_path / "charsum.csv").read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "d,x,sum,bound_ratio"
    assert len(lines) == 3


def test_charsum_workers_merge_deterministic(tmp_path):
    assert run(tmp_path, "charsum", "--d", "5,8", "--x", "10000") == 0
    serial = (tmp_path / "charsum.csv").read_bytes()
    assert main(["--out", str(tmp_path), "--workers", "4",
                 "charsum", "--d", "5,8", "--x", "10000"]) == 0
    assert (tmp_path / "charsum.csv").read_bytes() == serial


def test_hs_sum_command(tmp_path):
    assert run(tmp_path, "hs-sum", "--group", "gamma_m:2",
               "--tau", "0.015625", "--s", "0.9", "--x", "12") == 0
    payload = read_json(tmp_path, "hs_sum.json")
    rep = payload["report"]
    assert rep["direct"] == pytest.approx(rep["decomposed"], rel=1e-8)


def test_np_command(tmp_path):
    assert run(tmp_path, "np", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2") == 0
    payload = read_json(tmp_path, "np.json")
    assert payload["report"]["count"] >= 0


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "gamma_m:2", "length": 2}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "words"]) == 0
    assert len((tmp_path / "words.csv").read_text().splitlines()) == 13
    # flags win over config values
    assert main(["--config", str(cfg), "--out", str(tmp_path), "words", "--length", "1"]) == 0
    assert len((tmp_path / "words.csv").read_text().splitlines()) == 5


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "gamma_m:2", "bogus_key": 1}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "validate"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "bogus_key" in err["message"]


def test_config_rejects_a_value_that_is_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["group", "gamma_m:2"]))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "validate"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValueError"
    assert err["message"] == "config file must contain a JSON object"


def test_config_supplies_the_shared_required_flags(tmp_path):
    # --group, --tau, --p and --sigma are each one action shared by several commands
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "gamma_m:2", "tau": 0.015625, "p": 5, "sigma": 0.2}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "partition"]) == 0
    assert read_json(tmp_path, "partition.json")["config"]["tau"] == 0.015625
    assert main(["--config", str(cfg), "--out", str(tmp_path), "np", "--n-basis", "8"]) == 0
    config = read_json(tmp_path, "np.json")["config"]
    assert (config["group"], config["p"], config["sigma"]) == ("gamma_m:2", 5, 0.2)
    # zeta's own --tau is optional, with the config value as its default
    assert main(["--config", str(cfg), "--out", str(tmp_path), "zeta", "--re-lo", "0.5",
                 "--re-hi", "1.0", "--points", "2", "--n-basis", "4"]) == 0
    assert read_json(tmp_path, "zeta.json")["config"]["tau"] == 0.015625


@pytest.mark.parametrize("config, argv", [
    ({"n_basis": None}, ["delta", "--group", "gamma_m:2"]),
    ({"n_basis": None}, ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5", "--re-hi", "1.0"]),
    ({"n_basis": 8.5}, ["delta", "--group", "gamma_m:2"]),
    ({"n_basis": 8.5}, ["np", "--group", "gamma_m:2", "--p", "7", "--sigma", "0.3"]),
    ({"p": 7.0}, ["np", "--group", "gamma_m:2", "--sigma", "0.3"]),
    ({"p": True}, ["np", "--group", "gamma_m:2", "--sigma", "0.3"]),
    ({"p": None}, ["np", "--group", "gamma_m:2", "--sigma", "0.3"]),
    ({"tol": [1e-6]}, ["delta", "--group", "gamma_m:2"]),
], ids=["delta-n-basis-null", "zeta-n-basis-null", "delta-n-basis-float", "np-n-basis-float",
        "np-p-float", "np-p-bool", "np-p-null", "delta-tol-list"])
def test_config_value_outside_its_flag_type_is_a_json_error(tmp_path, capsys, monkeypatch,
                                                            config, argv):
    def unexpected(*args, **kwargs):
        raise AssertionError("a command ran with a config value outside its flag's type")

    monkeypatch.setitem(cli.COMMANDS, argv[0], unexpected)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "--out", str(tmp_path), *argv]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValueError"
    key = next(iter(config))
    assert err["message"].startswith(f"argument --{key.replace('_', '-')}: invalid ")


@pytest.mark.parametrize("config, argv, workers, message", [
    ({"group": 5}, ["validate"], ["named_group", "validate_group"],
     "cannot resolve group spec '5'"),
    ({"group": None}, ["validate"], ["named_group", "validate_group"],
     "cannot resolve group spec 'null'"),
    ({"rep": 7}, ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4"], ["real_zeros"],
     "unknown representation '7'"),
    ({"refined": "yes"}, ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5", "--re-hi", "1.0"],
     ["zeta_det", "refined_zeta"], 'argument --refined: a switch takes true or false, got "yes"'),
    ({"workers": 2.5}, ["validate", "--group", "gamma_m:2"], ["named_group"],
     "argument --workers: invalid int value: '2.5'"),
], ids=["validate-group-int", "validate-group-null", "zeros-rep-int", "zeta-refined-string",
        "top-level-workers-float"])
def test_config_value_of_an_untyped_flag_or_switch_is_a_json_error(tmp_path, capsys, monkeypatch,
                                                                   config, argv, workers, message):
    # a value that is not a string is read as its JSON text, as --group 5 would be, at
    # the top level as in a command
    def unexpected(*args, **kwargs):
        raise AssertionError("a command ran with a config value its flag does not take")

    for name in workers:
        monkeypatch.setattr(cli, name, unexpected)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "--out", str(tmp_path), *argv]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValueError"
    assert message in err["message"]
    assert not (tmp_path / f"{argv[0]}.json").exists()


def test_config_takes_strings_null_where_the_default_is_none_and_ints_for_floats(tmp_path,
                                                                                monkeypatch):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "np", lambda args, outdir: seen.append(vars(args)) or {})
    monkeypatch.setitem(cli.COMMANDS, "distortion", lambda args, outdir: seen.append(vars(args)) or {})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "gamma_m:2", "p": "7", "sigma": 0, "n_basis": None}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "np"]) == 0
    cfg.write_text(json.dumps({"group": "gamma_m:2", "delta": None}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "distortion"]) == 0
    assert (seen[0]["p"], seen[0]["sigma"], seen[0]["n_basis"]) == (7, 0, None)
    assert seen[1]["delta"] is None


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHOTTKY_ZETA_OUT", str(tmp_path))
    assert main(["validate", "--group", "gamma_m:2"]) == 0
    assert (tmp_path / "validate.json").exists()


def test_distortion_command(tmp_path):
    assert run(tmp_path, "distortion", "--group", "gamma_m:2", "--max-len", "3",
               "--taus", "0.015625,0.0078125", "--delta", "0.274882") == 0
    payload = read_json(tmp_path, "distortion.json")
    lo, hi = payload["report"]["y_count_band"]
    assert 0 < lo <= hi
    with open(tmp_path / "distortion.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["quantity", "min", "max"]
    # one row per min/max quantity, and never the two-element list of taus
    assert [r[0] for r in rows[1:]] == ["deriv_ratio", "mirror_ratio", "norm_sqrt_tau",
                                        "product_ratio", "ups_vs_deriv", "y_count_band"]
    assert all(float(lo) <= float(hi) for _, lo, hi in rows[1:])


@pytest.mark.parametrize("argv", [
    ["np", "--group", "gamma_m:2", "--p", "2147483659", "--sigma", "0.2"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4", "--rep", "lambda_p0:2147483659"],
], ids=["np", "zeros"])
def test_a_prime_past_2_31_is_a_json_error(tmp_path, capsys, monkeypatch, argv):
    # refused before any closure: the BFS of an onto reduction there could only
    # end at CLOSURE_CAP, and a cap of 100 keeps a regression fast
    monkeypatch.setattr(congruence, "CLOSURE_CAP", 100)
    assert run(tmp_path, *argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValueError"
    assert "2^31" in err["message"]
    assert not (tmp_path / f"{argv[0]}.csv").exists()
    assert not (tmp_path / f"{argv[0]}.json").exists()


def test_a_prime_past_the_dense_cap_is_a_json_error(tmp_path, capsys, monkeypatch):
    # p = 1009 is onto, by trace witnesses; its dense lambda_p is refused before any image
    def unexpected(*args, **kwargs):
        raise AssertionError("no projective-line permutation may be built")

    monkeypatch.setattr(congruence, "coset_perm", unexpected)
    assert run(tmp_path, "np", "--group", "gamma_m:2", "--p", "1009", "--sigma", "0.2") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValueError"
    assert err["message"] == f"p=1009 exceeds the dense lambda_p cap DIRECT_P_CAP={congruence.DIRECT_P_CAP}"
    assert zeta.DIRECT_P_CAP is congruence.DIRECT_P_CAP
    assert not (tmp_path / "np.csv").exists()
    assert not (tmp_path / "np.json").exists()


def test_trace_check_runs_each_closure_once(tmp_path):
    # the CLI and the trace functions share one cache entry per (group, p);
    # p = 5 and 7 take the BFS, p = 11 is certified by trace witnesses
    closure_size.cache_clear()
    _closure_size.cache_clear()
    assert run(tmp_path, "trace-check", "--group", "gamma_m:2",
               "--max-len", "2", "--pmin", "5", "--pmax", "11") == 0
    assert closure_size.cache_info().misses == 3
    assert _closure_size.cache_info().misses == 2


def test_hs_sum_decomposed_reaches_large_x(tmp_path):
    # the BFS over SL_2(F_p), p ~ 1e5, would pass CLOSURE_CAP: only trace witnesses get here
    assert run(tmp_path, "hs-sum", "--group", "gamma_m:2", "--tau", "0.015625",
               "--mode", "decomposed", "--x", "1e5") == 0
    rep = read_json(tmp_path, "hs_sum.json")["report"]
    assert rep["primes"][0] > 5e4 and rep["primes"][-1] <= 1e5
    assert math.isfinite(rep["decomposed"])


def test_delta_command_runs_each_method_once(tmp_path, monkeypatch):
    calls = []
    for name in ("delta_bisection", "delta_from_zeta"):
        def counted(*args, _name=name, _real=getattr(zeta, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        for module in (zeta, cli):
            monkeypatch.setattr(module, name, counted, raising=False)
    assert run(tmp_path, "delta", "--group", "gamma_m:2", "--tol", "1e-6") == 0
    assert sorted(calls) == ["delta_bisection", "delta_from_zeta"]
    report = read_json(tmp_path, "delta.json")["report"]
    assert report["delta"] == report["bisection"]


def test_delta_command_checks_the_bisection_by_two_determinants(tmp_path, capsys, monkeypatch):
    # the CLI's delta is zeta.delta's: det(1 - L_s) must change sign across it
    real = zeta.zeta_det
    monkeypatch.setattr(zeta, "zeta_det", lambda *args: abs(real(*args)))
    assert run(tmp_path, "delta", "--group", "gamma_m:2", "--tol", "1e-6") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConvergenceError"
    assert "keeps its sign across delta = 0.2748" in err["message"]
    assert not (tmp_path / "delta.csv").exists()


@pytest.mark.parametrize("argv", [
    ["distortion", "--group", "gamma_m:2"],
    ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5", "--re-hi", "1.0"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4"],
    ["delta", "--group", "gamma_m:2"],
    ["np", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2"],
], ids=lambda argv: argv[0])
def test_jensen_alone_leaves_n_basis_unset(argv):
    # the zero searches' --n-basis defaults to None; the fixed one keeps DEFAULT_N for the rest
    want = None if argv[0] in ("zeros", "np") else cli.DEFAULT_N
    parser = cli.build_parser()
    assert parser.parse_args(argv).n_basis == want
    jensen = ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625"]
    assert parser.parse_args(jensen).n_basis is None
    assert parser.parse_args(argv).n_basis == want


def test_config_fixes_the_jensen_basis(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_basis": 12}))
    argv = ["--config", str(cfg), "jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2",
            "--tau", "0.015625"]
    assert cli._apply_config(cli.build_parser(), argv).n_basis == 12
    assert cli._apply_config(cli.build_parser(), argv + ["--n-basis", "8"]).n_basis == 8


def test_jensen_help_states_how_n_is_chosen(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(["jensen", "-h"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"N = 8, 12, ..., {cli.DEFAULT_N}" in text
    assert "within --bound-tol of the bound at N - 4" in text


def test_config_fixes_the_np_basis(tmp_path, monkeypatch):
    seen = []

    def count(group, p, sigma, tol, n_basis):
        seen.append(n_basis)
        return 0

    monkeypatch.setattr(cli, "new_eigenvalue_count", count)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_basis": 12}))
    argv = ["--config", str(cfg), "--out", str(tmp_path), "np", "--group", "gamma_m:2",
            "--p", "5", "--sigma", "0.2"]
    assert main(argv) == 0
    assert main(argv + ["--n-basis", "8"]) == 0
    assert main(["--out", str(tmp_path), *argv[4:]]) == 0
    assert seen == [12, 8, None]


def test_np_help_states_how_n_is_chosen(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(["np", "-h"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"N = 8, 12, ..., {cli.DEFAULT_N}" in text
    assert "det(1 - L_s) at N - 4 is within half its modulus of the value at N" in text
