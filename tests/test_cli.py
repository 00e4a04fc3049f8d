"""Tests for the command-line front end."""

import csv
import json
import math
import subprocess
import sys

import pytest

from chernkit import __version__, invariants
from chernkit.cli import run

HALDANE = '{"model": "haldane"}'


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# global flags
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_list_models(capsys):
    code, out, _ = _run(capsys, "--list-models")
    assert code == 0
    names = json.loads(out)["models"]
    for expected in ("haldane", "bhz_square", "kagome", "triangular"):
        assert expected in names


def test_no_command_prints_help(capsys):
    code, out, _ = _run(capsys)
    assert code == 2
    assert "usage" in out.lower()


def test_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "chernkit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------


def test_ring_distances_square_default(capsys):
    code, out, _ = _run(capsys, "ring", "--op", "distances", "--limit", "12")
    assert code == 0
    data = json.loads(out)
    assert data["lattice"] == "square"
    assert data["distances"] == [1, 2, 3, 4, 6, 7, 8, 9, 11, 12]


def test_ring_distances_triangular_default(capsys):
    code, out, _ = _run(capsys, "ring", "--d", "3", "--op", "distances", "--limit", "6")
    assert code == 0
    data = json.loads(out)
    assert data["lattice"] == "triangular"
    assert data["distances"] == [1, 2, 3, 4, 5, 6]


def test_ring_shell(capsys):
    code, out, _ = _run(capsys, "ring", "--d", "1", "--op", "shell", "--n", "25")
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 12
    assert not data["isolated"]
    assert data["distance"] == 5.0


def test_ring_classify(capsys):
    code, out, _ = _run(capsys, "ring", "--d", "1", "--op", "classify", "--p", "5")
    assert code == 0
    assert json.loads(out)["behavior"] == "split"


def test_ring_isolated(capsys):
    code, out, _ = _run(capsys, "ring", "--d", "1", "--op", "isolated", "--n", "9")
    assert code == 0
    assert json.loads(out)["isolated"] is True


def test_ring_bad_d_exits_2(capsys):
    code, _, err = _run(capsys, "ring", "--d", "4", "--op", "shell", "--n", "2")
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_models_listing(capsys):
    code, out, _ = _run(capsys, "models")
    assert code == 0
    listing = json.loads(out)["models"]
    assert listing["haldane"]["bands"] == 2
    assert listing["kagome"]["bands"] == 3


def test_models_single(capsys):
    code, out, _ = _run(capsys, "models", "--name", "haldane")
    assert code == 0
    data = json.loads(out)
    assert data["defaults"]["t2"] == 0.5
    assert data["periodicity"] == "exact"


def test_models_unknown_exits_2(capsys):
    code, _, err = _run(capsys, "models", "--name", "nope")
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# chern
# ---------------------------------------------------------------------------


def test_chern_each_method(capsys):
    for method in ("berry", "integral", "ray"):
        code, out, _ = _run(
            capsys, "chern", "--model-config", HALDANE, "--method", method
        )
        assert code == 0
        assert json.loads(out)["value"] == 1


def test_chern_all_methods_agree(capsys):
    code, out, _ = _run(capsys, "chern", "--model-config", HALDANE, "--method", "all")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1
    assert set(data["values"].values()) == {1}
    assert all(r < 0.5 for r in data["residuals"].values())


def test_chern_config_file_and_params(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": "haldane", "params": {"m": 3.0}}))
    code, out, _ = _run(capsys, "chern", "--model-config", str(cfg), "--method", "berry")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_chern_scaled_config(capsys):
    cfg = json.dumps({"model": "haldane", "N": 2, "variant": "all"})
    code, out, _ = _run(
        capsys, "chern", "--model-config", cfg, "--method", "berry", "--grid", "96x96"
    )
    assert code == 0
    assert json.loads(out)["value"] == 4


def test_chern_band_one(capsys):
    code, out, _ = _run(
        capsys, "chern", "--model-config", HALDANE, "--method", "berry", "--band", "1"
    )
    assert code == 0
    assert json.loads(out)["value"] == -1


def test_chern_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "chern", "--model-config", HALDANE)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_chern_degenerate_exits_3(capsys):
    cfg = json.dumps({"model": "bhz_square", "params": {"m": 2.0}})
    code, _, err = _run(capsys, "chern", "--model-config", cfg, "--method", "berry")
    assert code == 3
    data = json.loads(err)
    assert data["kind"] == "DegenerateFamilyError"
    assert "k" in data


def test_chern_bad_config_exits_2(capsys):
    for bad in ("{", '{"model": "nope"}', '{"params": {}}', "/does/not/exist.json"):
        code, _, err = _run(capsys, "chern", "--model-config", bad)
        assert code == 2, bad
        assert "error" in json.loads(err)


def test_chern_bad_grid_exits_2(capsys):
    code, _, err = _run(
        capsys, "chern", "--model-config", HALDANE, "--grid", "60x40"
    )
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_csv_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    cfg = json.dumps({"model": "bhz_square"})
    code, out, _ = _run(
        capsys,
        "scan",
        "--model-config",
        cfg,
        "--axis",
        "m:-3:3:13",
        "--grid",
        "32",
        "--out",
        str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["axes"] == [["m", -3.0, 3.0, 13]]
    assert not summary["errors"]
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    labels = [r["chern"] for r in rows]
    assert labels[0] == "0" and labels[6] == "DEGENERATE"
    ms = [float(r["m"]) for r in rows]
    assert ms[0] == -3.0 and ms[-1] == 3.0
    assert all(float(r["min_gap"]) >= 0 for r in rows)


def test_scan_stdout_csv_summary_on_stderr(capsys):
    code, out, err = _run(
        capsys,
        "scan",
        "--model-config",
        HALDANE,
        "--axis",
        "m:0:4:5",
        "--grid",
        "32",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["chern"] for r in rows] == ["1", "1", "1", "0", "0"]
    assert "boundaries" in json.loads(err)


def test_scan_config_params_become_defaults(capsys):
    # t2 = 0.25 moves the boundary |m| = 3 sqrt(3) t2 from 2.60 to 1.30
    cfg = json.dumps({"model": "haldane", "params": {"t2": 0.25}})
    code, out, _ = _run(capsys, "scan", "--model-config", cfg, "--axis", "m:0:4:5", "--grid", "32")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["chern"] for r in rows] == ["1", "1", "0", "0", "0"]


def test_scan_summary_counts_certified_and_refined(capsys):
    code, out, err = _run(
        capsys, "scan", "--model-config", HALDANE, "--axis", "m:0:4:9", "--grid", "32"
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["certified"] > 0 and summary["refined"] > 0
    assert summary["certified"] + summary["refined"] == 9
    rows = list(csv.DictReader(out.splitlines()))
    assert list(rows[0]) == ["m", "chern", "min_gap"]


def test_scan_band_out_of_range_exits_2(capsys):
    cfg = json.dumps({"model": "bhz_square"})
    code, _, err = _run(capsys, "scan", "--model-config", cfg, "--axis", "m:-1:1:3", "--band", "1")
    assert code == 2
    assert "band" in json.loads(err)["error"]


def test_scan_bad_axis_exits_2(capsys):
    code, _, err = _run(
        capsys, "scan", "--model-config", HALDANE, "--axis", "m:0:1"
    )
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# rose / wall / fan
# ---------------------------------------------------------------------------


def test_rose_csv(capsys):
    code, out, _ = _run(
        capsys, "rose", "--d", "1", "--dprime", "2", "--t", "0.5"
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) >= 16 * 4
    first = rows[0]
    # at phi = 0 both exponentials are 1
    assert float(first["x"]) == pytest.approx(1.0)
    assert float(first["y"]) == pytest.approx(0.0)


def test_wall_json(capsys):
    code, out, _ = _run(capsys, "wall", "--d", "1", "--dprime", "-2")
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == 3
    assert data["zeros"] == pytest.approx([math.pi / 3, math.pi, 5 * math.pi / 3])
    mid = [m for t, m in data["trace"] if abs(t - 0.5) < 1e-9]
    assert mid and mid[0] < 1e-6
    edges = [m for t, m in data["trace"] if t in (0.0, 1.0)]
    assert all(m > 0.5 for m in edges)


def test_wall_equal_degrees_exits_2(capsys):
    code, _, err = _run(capsys, "wall", "--d", "2", "--dprime", "2")
    assert code == 2
    assert "error" in json.loads(err)


def test_fan_pass(capsys):
    code, out, _ = _run(capsys, "fan", "--k", "3", "--labels", "0,1,2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert [c["degree"] for c in report["chambers"]] == [0, 1, 2]


def test_fan_bad_labels_exits_2(capsys):
    code, _, err = _run(capsys, "fan", "--k", "3", "--labels", "0,1")
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_default_point(capsys):
    code, out, _ = _run(capsys, "validate", "--model-config", HALDANE)
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["points"][0]["value"] == 1


def test_validate_checks_the_configured_point(capsys):
    cfg = '{"model": "bhz_square", "params": {"m": -1.0}}'
    code, out, _ = _run(capsys, "validate", "--model-config", cfg)
    assert code == 0
    (point,) = json.loads(out)["points"]
    assert point["params"] == {"t1": 1.0, "m": -1.0}
    assert point["value"] == -1


@pytest.mark.parametrize("points", ["1", "3"])
def test_validate_degenerate_configured_point_exits_3(capsys, monkeypatch, points):
    """bhz at m = 0 is gapless: the engine's error is reported without resampling."""
    calls = []
    original = invariants.cross_validate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(invariants, "cross_validate", counting)
    cfg = '{"model": "bhz_square", "params": {"m": 0.0}}'
    code, _, err = _run(capsys, "validate", "--model-config", cfg, "--points", points)
    assert code == 3
    assert json.loads(err)["kind"] == "DegenerateFamilyError"
    assert len(calls) == 1


def test_validate_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = _run(
            capsys,
            "validate",
            "--model-config",
            HALDANE,
            "--points",
            "2",
            "--seed",
            "5",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    pts = json.loads(outs[0])["points"]
    assert len(pts) == 2
