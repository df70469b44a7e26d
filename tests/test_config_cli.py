import io
import json

import numpy as np
import pytest

from blowlab import lemmas
from blowlab.cli import main
from blowlab.config import ConfigError, load_config, parse_config_text

TINY_CONFIG = """
# fast blow-up for integration tests
p = 4
q = 3
mu = 0.1
dim = 1
R = 1.0
M = 64
blowup_cap = 1e4
record_stride = 50
t_star = 0.01
"""


def write_config(tmp_path, text=TINY_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------- config file

def test_parse_config_text_defaults_and_comments():
    raw = parse_config_text("p = 5.0  # bigger exponent\n\nM=128\n")
    assert raw["p"] == 5.0
    assert raw["M"] == 128
    assert raw["q"] == 3.0  # untouched default


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r":2: unknown key 'pp'"):
        parse_config_text("p = 4\npp = 1\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("M = many\n")


def test_load_config_defaults_are_valid():
    run_config = load_config(None)
    assert run_config.params.p == 4.0
    assert run_config.solver.grid.M == 4096
    assert run_config.raw["beta"] == pytest.approx(run_config.params.beta)


def test_build_config_rejects_bad_window(tmp_path):
    path = write_config(tmp_path, "p = 4\nq = 5\n")
    with pytest.raises(ConfigError, match="q upper bound"):
        load_config(path)


# ------------------------------------------------------------------- run

def test_run_dry_run_prints_derived_constants(capsys):
    assert main(["run", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "gamma=0.33333" in out
    assert "kappa=0.69336" in out
    assert "b=0.5625" in out


def test_run_rejects_malformed_config(tmp_path, capsys):
    path = write_config(tmp_path, "p = 4\nq = 5\n")
    assert main(["run", "--config", path]) == 2
    assert "q upper bound" in capsys.readouterr().err
    for key in ("t_star", "taper_start"):
        path = write_config(tmp_path, f"{key} = 1.5\n")
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"{key} must be in (0, 1)" in capsys.readouterr().err


def test_run_param_override_flags(capsys):
    assert main(["run", "--dry-run", "--p", "5", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "gamma=0.25" in out  # (5-4)/(5-1)
    assert main(["run", "--dry-run", "--q", "5"]) == 2  # flag outside the window


def test_run_writes_artifacts_and_blows_up(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "blowup_estimate.json", "field_final.csv", "manifest.json", "run_summary.json",
        "snapshots.npz", "trajectory.csv"]
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["status"] == "blown-up"
    assert summary["manifest"]["config"]["M"] == 64
    est = json.loads((out / "blowup_estimate.json").read_text())
    assert est["kappa_est"] == pytest.approx(0.6934, rel=0.25)


def test_run_is_byte_reproducible(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(out1)]) == 0
    assert main(["run", "--config", config, "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "field_final.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_overflow_exit_code(tmp_path):
    config = write_config(tmp_path, TINY_CONFIG.replace("blowup_cap = 1e4",
                                                        "blowup_cap = 1e300"))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 3
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["status"] == "overflowed"


# ----------------------------------------------------------------- frames

@pytest.fixture()
def finished_run(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    return out


def test_frames_empty_list_is_noop(finished_run, capsys):
    assert main(["frames", "--out", str(finished_run), "--x0", ""]) == 0
    assert "nothing to do" in capsys.readouterr().out


def test_frames_rejects_origin(finished_run, capsys):
    assert main(["frames", "--out", str(finished_run), "--x0", "0.1,0"]) == 2
    assert "x0 != 0" in capsys.readouterr().err


def test_frames_writes_reports(finished_run):
    assert main(["frames", "--out", str(finished_run),
                 "--x0", "0.1,0.2", "--K0", "4"]) == 0
    summary = json.loads((finished_run / "frames_summary.json").read_text())
    assert len(summary["reports"]) == 2
    for report in summary["reports"]:
        assert np.isfinite(report["eps0_measured"])
    frame_csv = (finished_run / "frame_x0_0p1.csv").read_text().splitlines()
    assert frame_csv[0] == "x0,K0,t0,tau,xi,v,w"
    assert len(frame_csv) > 10
    table = json.loads((finished_run / "final_profile.json").read_text())
    assert [point["r"] for point in table["points"]] == [0.1, 0.2]


def test_frames_missing_artifacts(tmp_path, capsys):
    assert main(["frames", "--out", str(tmp_path / "nowhere"), "--x0", "0.1"]) == 2
    assert "cannot load run artifacts" in capsys.readouterr().err


def test_frames_rejects_unreadable_archive(finished_run, capsys):
    archive = finished_run / "snapshots.npz"
    whole = archive.read_bytes()
    archive.write_bytes(whole[:len(whole) // 2])
    assert main(["frames", "--out", str(finished_run), "--x0", "0.1"]) == 2
    assert "unreadable run archive" in capsys.readouterr().err
    # an archive without the history, as written before it held one
    with np.load(io.BytesIO(whole)) as data:
        arrays = {key: data[key] for key in data.files if key != "history"}
    np.savez_compressed(archive, **arrays)
    assert main(["frames", "--out", str(finished_run), "--x0", "0.1"]) == 2
    assert "history" in capsys.readouterr().err


@pytest.mark.parametrize("config_text, argv, message", [
    (TINY_CONFIG + "max_steps = 100\n", [], "need 'blown-up'"),  # no fit, no --T
    (TINY_CONFIG, ["--x0", "5"], "unreachable"),
    (TINY_CONFIG, ["--K0", "-1"], "K0 must be positive"),
    (TINY_CONFIG, ["--T", "-1"], "T must be positive"),
])
def test_frames_bad_request_is_config_error(tmp_path, capsys, config_text, argv, message):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, config_text),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["frames", "--out", str(out), "--x0", "0.1", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not list(out.glob("frame*"))  # nothing half-written


# ----------------------------------------------------------------- verify

def test_verify_stock_passes(capsys, tmp_path):
    import time
    start = time.perf_counter()
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
    report = json.loads((tmp_path / "verification_report.json").read_text())
    assert report["failures"] == []
    sweep_lines = (tmp_path / "integral_sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 501  # header + 500 cases


def test_verify_fault_injection(capsys, monkeypatch):
    bound = lemmas.integral_I_bound
    monkeypatch.setattr(lemmas, "integral_I_bound", lambda c: 0.5 * bound(c))
    assert main(["verify"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "alpha=" in out  # names the failing case


def test_verify_json_output(capsys):
    assert main(["verify", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["integral_sweep"]["n_failed"] == 0
    assert doc["gronwall"]["n_violations"] == 0


# ------------------------------------------------------------------ sweep

def test_sweep_two_points(tmp_path):
    config = write_config(tmp_path, TINY_CONFIG.replace("blowup_cap = 1e4",
                                                        "blowup_cap = 1e3"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--grid", "mu=0:0.2:2",
                 "--out", str(out), "--workers", "1"]) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("index,mu,status")
    for point in ("point_0000", "point_0001"):
        assert sorted(p.name for p in (out / point).iterdir()) == [
            "snapshots.npz", "trajectory.csv"]


def test_sweep_records_invalid_points(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    # q=5 is outside the admissible window for p=4, dim=1; t_star=1.5 outside (0, 1)
    assert main(["sweep", "--config", config, "--grid", "q=3:5:2,t_star=0.01:1.5:2",
                 "--out", str(out), "--workers", "1"]) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 5
    assert "blown-up" in lines[1]
    assert "config-error" in lines[2] and "t_star" in lines[2]
    assert all("config-error" in line for line in lines[3:])


def test_sweep_bad_grid_spec(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["sweep", "--config", config, "--grid", "nonsense",
                 "--out", str(tmp_path / "s")]) == 2


# ----------------------------------------------------------------- report

def test_report_summarizes_run(finished_run, capsys):
    assert main(["frames", "--out", str(finished_run), "--x0", "0.2"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(finished_run)]) == 0
    out = capsys.readouterr().out
    assert "status: blown-up" in out
    assert "T_est=" in out
    assert "x0=0.2" in out
    # telemetry: steps per dt branch and the wall-time split
    summary = json.loads((finished_run / "run_summary.json").read_text())
    diffusion = summary["steps_diffusion_limited"]
    reaction = summary["steps_reaction_limited"]
    assert diffusion > 0 and reaction > 0
    assert diffusion + reaction == summary["steps"]  # no t_max clip in this run
    assert set(summary["wall_s"]) == {"stepping", "writes"}
    assert all(v >= 0.0 for v in summary["wall_s"].values())
    assert f"diffusion-limited={diffusion}  reaction-limited={reaction}" in out
    assert "wall: stepping=" in out and "writes=" in out


def test_text_outputs_carry_no_numpy_reprs(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    stdout = []
    for argv in (["run", "--config", config, "--out", str(out)],
                 ["frames", "--out", str(out), "--x0", "0.2"],
                 ["report", "--out", str(out)],
                 ["sweep", "--config", config, "--grid", "mu=0:0.1:2",
                  "--out", str(tmp_path / "sweep"), "--workers", "1"]):
        assert main(argv) == 0
        stdout.append(capsys.readouterr().out)
    assert not any("np.float64" in text for text in stdout)
    assert "np.float64" not in (tmp_path / "sweep" / "sweep_summary.csv").read_text()
    frame_csv = out / "frame_x0_0p2.csv"
    assert "np.float64" not in frame_csv.read_text()
    frame = np.loadtxt(frame_csv, delimiter=",", skiprows=1)
    assert frame.shape[1] == 7 and np.all(frame[:, 0] == 0.2)
    # numpy's skiprows counts the comment lines too, so skip through the header
    header_row = (out / "field_final.csv").read_text().splitlines().index("r,u,du_dr,J")
    field = np.loadtxt(out / "field_final.csv", delimiter=",", comments="#",
                       skiprows=header_row + 1)
    assert field.shape == (65, 4)
    assert field[0, 0] == 0.0 and field[-1, 0] == 1.0


def test_report_missing_artifacts(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
