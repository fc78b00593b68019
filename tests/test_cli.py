import json

import pytest

from schottky_zeta import cli, zeta
from schottky_zeta.cli import main
from schottky_zeta.congruence import _closure_size


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


@pytest.mark.parametrize("argv", [
    ["delta", "--group", "gamma_m:2", "--tol", "0"],
    ["delta", "--group", "gamma_m:2", "--tol=-1e-8"],
    ["delta", "--group", "gamma_m:2", "--tol", "1e-300"],
    ["zeros", "--group", "gamma_m:2", "--lo", "0.1", "--hi", "0.4", "--tol", "0"],
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
     "--bound-tol", "0"],
    ["jensen", "--group", "gamma_m:2", "--p", "5", "--sigma", "0.2", "--tau", "0.015625",
     "--bound-tol", "-1"],
    ["words", "--group", "gamma_m:2", "--length", "-1"],
    ["words", "--group", "gamma_m:2", "--length", "40"],
    ["trace-check", "--group", "gamma_m:2", "--max-len", "40"],
], ids=["delta-tol-0", "delta-tol-negative", "delta-tol-below-float-spacing", "zeros-tol-0",
        "zeros-lo-above-hi", "zeros-lo-equals-hi", "zeros-hi-inf", "zeros-lo-minus-inf",
        "zeta-points-negative", "zeta-points-1", "jensen-theta-samples-0",
        "jensen-theta-samples-negative", "jensen-K-0", "jensen-K-negative",
        "jensen-bound-tol-0", "jensen-bound-tol-negative", "words-length-negative",
        "words-length-40", "trace-check-max-len-40"])
def test_out_of_range_input_is_a_json_error(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error_type"] == "ValueError"
    assert not (tmp_path / f"{argv[0]}.csv").exists()


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


def test_trace_check_runs_each_closure_once(tmp_path):
    # the CLI and the trace functions share one cache entry per (group, p)
    _closure_size.cache_clear()
    assert run(tmp_path, "trace-check", "--group", "gamma_m:2",
               "--max-len", "2", "--pmin", "5", "--pmax", "11") == 0
    assert _closure_size.cache_info().misses == 3


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
