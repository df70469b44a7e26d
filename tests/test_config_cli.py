import contextlib
import csv
import io
import itertools
import json
from concurrent.futures import Future

import numpy as np
import pytest

from blowlab import cli, lemmas, solver
from blowlab.cli import main
from blowlab.config import ConfigError, load_config, parse_config_text
from blowlab.params import beta_window
from blowlab.similarity import extract_frame
from blowlab.solver import SolverConfig, load_snapshots, profile_seeded_field, run_until_blowup
from conftest import assert_same_steps, run_python

TINY_CONFIG = """
# fast blow-up for integration tests
p = 4
q = 3
mu = 0.1
dim = 1
R = 1.0
M = 64
blowup_cap = 1e4
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
    # only the keys that default to None take "none"
    assert parse_config_text("t_max = none\n")["t_max"] is None
    with pytest.raises(ConfigError, match="bad value for dt_safety"):
        parse_config_text("dt_safety = none\n")


def test_load_config_defaults_are_valid():
    run_config = load_config(None)
    assert run_config.params.p == 4.0
    assert run_config.solver.grid.M == 4096
    # the solver knobs default to SolverConfig's own defaults
    assert run_config.solver == SolverConfig(grid=run_config.solver.grid,
                                             params=run_config.params)
    # the file's keys stay as set; the echo carries the resolved beta
    assert run_config.raw["beta"] is None
    assert run_config.to_dict()["beta"] == pytest.approx(run_config.params.beta)


def test_int_keys_refuse_non_integral_values():
    """An int key takes an integral float (a --grid axis is floats) and
    refuses any other value instead of truncating it."""
    for key, value in (("M", 150.5), ("dim", float("nan")), ("max_steps", float("inf"))):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {value!r}$"):
            load_config(None, {key: value})
    run_config = load_config(None, {"M": 128.0})
    assert run_config.solver.grid.M == 128 and run_config.raw["M"].__class__ is int


def test_build_config_rejects_bad_window(tmp_path):
    path = write_config(tmp_path, "p = 4\nq = 5\n")
    with pytest.raises(ConfigError, match="q upper bound"):
        load_config(path)


# ------------------------------------------------------------------- run

def test_parser_is_built_once_and_commands_are_found_when_called(tmp_path, monkeypatch,
                                                                  capsys):
    """main parses with one parser per process, yet runs the command
    function the module holds at the call, so a function set there later
    (a wrapper, a test's stub) is the one that runs."""
    assert cli.build_parser() is cli.build_parser()
    assert main(["report", "--out", str(tmp_path)]) == 2  # the real command: no run there
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.out) or 0)
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert seen == [str(tmp_path)]
    capsys.readouterr()


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
    for line, message in [("t_star = 1.5", "t_star must be in (0, 1)"),
                          ("taper_start = 1.5", "unknown key 'taper_start'"),
                          ("record_stride = 2000", "unknown key 'record_stride'"),
                          ("snapshot_growth = 1.15", "unknown key 'snapshot_growth'")]:
        path = write_config(tmp_path, f"{line}\n")
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
    path = write_config(tmp_path, "boundary = sideways\n")
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "boundary must be one of" in capsys.readouterr().err
    path = write_config(tmp_path, "M = 512\n# a smaller grid\nM = 64\n")
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: {path}:3: M is set again "
                                       "(first on line 1)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("blowup_cap = -1", "blowup_cap must be finite and positive, got -1.0"),
    ("blowup_cap = nan", "blowup_cap must be finite and positive, got nan"),
    ("t_max = nan", "t_max must be none or positive, got nan"),
    ("t_max = -1", "t_max must be none or positive, got -1.0"),
], ids=["cap-negative", "cap-nan", "t_max-nan", "t_max-negative"])
def test_run_refuses_a_bad_cap_or_t_max(tmp_path, capsys, line, message):
    # the line takes the place of TINY_CONFIG's own line for its key
    key = line.split(" = ")[0]
    text = "".join(row for row in TINY_CONFIG.splitlines(True) if not row.startswith(f"{key} ="))
    path = write_config(tmp_path, f"{text}{line}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("R", ["inf", "1e-300"], ids=["R-inf", "R-h2-underflows"])
def test_run_refuses_an_R_without_a_finite_1_over_h2(tmp_path, capsys, R):
    """R = inf puts inf and nan in the grid's r, and R = 1e-300 makes
    h^2 = (R/M)^2 underflow to 0: both are config errors, not tracebacks."""
    path = write_config(tmp_path, TINY_CONFIG.replace("R = 1.0", f"R = {R}"))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: R must be finite and positive with a "
                                       f"finite 1/h^2 (h = R/M), got R={float(R)}\n")
    assert not out.exists()


def test_run_param_override_flags(capsys):
    assert main(["run", "--dry-run", "--p", "5", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "gamma=0.25" in out  # (5-4)/(5-1)
    assert main(["run", "--dry-run", "--q", "5"]) == 2  # flag outside the window


@pytest.mark.parametrize("cap", ["1e2", "1e4", "1e7"])
def test_run_writes_artifacts_and_blows_up(tmp_path, capsys, cap):
    """Each run blows up.  At cap 1e2 the sup-norm grows less than the two
    decades the fit needs, so the summary says why and no estimate file is
    written; at 1e7 the core passes 1e6, so the summary carries the far
    field, which stays within perfbench's localization bound of 10.
    ``--json`` prints the summary file."""
    config = write_config(tmp_path, TINY_CONFIG.replace("blowup_cap = 1e4",
                                                        f"blowup_cap = {cap}"))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out), "--json"]) == 0
    assert capsys.readouterr().out == (out / "run_summary.json").read_text()
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["status"] == "blown-up"
    assert summary["manifest"]["config"]["M"] == 64
    names = ["field_final.csv", "manifest.json", "run_summary.json", "snapshots.npz",
             "trajectory.csv"]
    if cap == "1e2":
        assert summary["estimate_error"] == ("insufficient growth: history spans fewer "
                                             "than 2 decades of sup-norm")
        assert "estimate" not in summary
    else:
        names.append("blowup_estimate.json")
        est = json.loads((out / "blowup_estimate.json").read_text())
        assert est == {"manifest": summary["manifest"], **summary["estimate"]}
        assert est["kappa_est"] == pytest.approx(0.6934, rel=0.25)
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    if cap == "1e7":
        far = summary["far_field"]
        assert far["r_min"] == 0.1
        assert 0.0 < far["u_ratio_vs_initial"] < 10.0
        assert 0.0 < far["grad_ratio_vs_initial"] < 10.0
        assert far["window_snapshots"] >= 1
    else:
        assert "far_field" not in summary


@pytest.mark.parametrize("cap", ["1e2", "1e7"])
def test_run_and_report_print_the_failed_fit_and_the_far_field(tmp_path, capsys, cap):
    """The text of ``run`` and of ``report`` says why a fit failed (cap 1e2:
    too little growth) and gives the far field (cap 1e7), one line each, as
    the run summary holds them, with no numpy reprs."""
    config = write_config(tmp_path, TINY_CONFIG.replace("blowup_cap = 1e4",
                                                        f"blowup_cap = {cap}"))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    run_text = capsys.readouterr().out
    assert main(["report", "--out", str(out)]) == 0
    report_text = capsys.readouterr().out
    summary = json.loads((out / "run_summary.json").read_text())
    if cap == "1e2":
        expected = [f"no T_est: {summary['estimate_error']}"]
        assert "T_est=" not in run_text + report_text
    else:
        far = summary["far_field"]
        expected = [f"far field at r >= 0.1 while sup-norm > 1e6 "
                    f"(snapshots: {far['window_snapshots']}): "
                    f"max|u| {far['u_ratio_vs_initial']:.4g}x and "
                    f"max|du/dr| {far['grad_ratio_vs_initial']:.4g}x the initial field's"]
    for line in expected:
        assert line in run_text.splitlines()
        assert f"  {line}" in report_text.splitlines()
    assert "np.float64" not in run_text + report_text


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
    with np.load(finished_run / "frame_x0_0p1.npz", allow_pickle=False) as frame:
        assert frame["v"].shape == (len(frame["tau"]), len(frame["xi"]))
        assert frame["v"].size > 10
    assert not list(finished_run.glob("frame_x0_*.csv"))
    assert [point["r"] for point in summary["final_profile"]["points"]] == [0.1, 0.2]
    assert not list(finished_run.glob("frame_report_*.json"))
    assert not (finished_run / "final_profile.json").exists()


@pytest.mark.parametrize("K0, window", [(2.0, None), (8.0, 1.5)])
def test_frame_npz_arrays_match_extract_frame(finished_run, K0, window):
    """Each frame file holds the tau and xi grids and v and w of
    ``extract_frame`` at the fitted T, bit for bit, as float64."""
    argv = ["--window", repr(window)] if window is not None else []
    assert main(["frames", "--out", str(finished_run), "--x0=0.1,-0.15",
                 "--K0", repr(K0), *argv]) == 0
    trajectory = load_snapshots(finished_run / "snapshots.npz")
    T = json.loads((finished_run / "frames_summary.json").read_text())["T"]
    for x0, tag in ((0.1, "0p1"), (-0.15, "m0p15")):
        frame = extract_frame(trajectory, x0, K0, T, window=window)
        with np.load(finished_run / f"frame_x0_{tag}.npz", allow_pickle=False) as stored:
            for key, array in (("tau", frame.tau_grid), ("xi", frame.xi_grid),
                               ("v", frame.v), ("w", frame.w)):
                value = stored[key]
                assert value.dtype == np.float64 and value.shape == array.shape, key
                assert value.tobytes() == array.tobytes(), key


def test_frame_npz_holds_the_arrays_and_the_summary_constants(finished_run):
    """A frame file holds exactly tau (n_tau,), xi (n_xi,), v and w
    (n_tau, n_xi) and the 0-d x0, K0 and t0, which equal the summary's;
    it loads without pickles."""
    assert main(["frames", "--out", str(finished_run), "--x0", "0.05,-0.15",
                 "--K0", "3.5"]) == 0
    summary = json.loads((finished_run / "frames_summary.json").read_text())
    for tag, report in zip(("0p05", "m0p15"), summary["reports"]):
        with np.load(finished_run / f"frame_x0_{tag}.npz", allow_pickle=False) as frame:
            arrays = {key: frame[key] for key in frame.files}
        assert sorted(arrays) == ["K0", "t0", "tau", "v", "w", "x0", "xi"]
        assert all(array.dtype == np.float64 for array in arrays.values())
        assert all(arrays[key].shape == () for key in ("x0", "K0", "t0"))
        assert {key: arrays[key].item() for key in ("x0", "K0", "t0")} == {
            "x0": report["x0"], "K0": summary["K0"], "t0": report["t0"]}
        n_tau, n_xi = len(arrays["tau"]), len(arrays["xi"])
        assert arrays["tau"].shape == (n_tau,) and arrays["xi"].shape == (n_xi,)
        assert arrays["v"].shape == arrays["w"].shape == (n_tau, n_xi)


def test_frames_of_close_x0_get_distinct_files(finished_run):
    """Two x0 equal to 6 significant digits write two frame files and two
    reports: the file tag is the repr of x0, not its %g form."""
    assert main(["frames", "--out", str(finished_run), "--x0", "0.1234567,0.1234568"]) == 0
    summary = json.loads((finished_run / "frames_summary.json").read_text())
    for x0, report in zip((0.1234567, 0.1234568), summary["reports"]):
        tag = repr(x0).replace(".", "p")
        with np.load(finished_run / f"frame_x0_{tag}.npz", allow_pickle=False) as frame:
            assert frame["x0"] == x0
        assert report["x0"] == x0
    assert len(list(finished_run.glob("frame_x0_*.npz"))) == 2


def test_frames_and_report_print_close_x0_apart(finished_run, capsys):
    """Two x0 equal to 6 significant digits print as two distinct rows of
    the frames table and of the final-profile table, and as two distinct
    x0 lines of ``report``: x0 prints as its repr, not its %g form."""
    assert main(["frames", "--out", str(finished_run), "--x0", "0.1234567,0.1234568"]) == 0
    firsts = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert firsts.count("0.1234567") == 2 and firsts.count("0.1234568") == 2
    assert main(["report", "--out", str(finished_run)]) == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()
             if line.strip().startswith("x0=")]
    assert [line.split(":")[0] for line in lines] == ["x0=0.1234567", "x0=0.1234568"]


def test_frames_fits_T_from_the_archive(finished_run):
    """frames refits T from the run archive, bit for bit the T that run
    wrote, so a damaged blowup_estimate.json cannot stop it."""
    estimate = finished_run / "blowup_estimate.json"
    T_run = json.loads(estimate.read_text())["T_est"]
    estimate.write_text("{}")
    assert main(["frames", "--out", str(finished_run), "--x0", "0.1"]) == 0
    assert json.loads((finished_run / "frames_summary.json").read_text())["T"] == T_run


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
    # one snapshot time short, no snapshot at all, an unknown status, and
    # version 5, whose config echoed the two former snapshot keys
    with np.load(io.BytesIO(whole)) as data:
        arrays = {key: data[key] for key in data.files}
    n = len(arrays["values"])
    for changes, message in (
            ({"times": arrays["times"][:-1]}, f"{n - 1} snapshot times for {n} snapshots"),
            ({"times": arrays["times"][:0], "values": arrays["values"][:0]},
             "0 snapshot times for 0 snapshots"),
            ({"status": np.array("bogus")}, "unknown status 'bogus'"),
            ({"version": np.array(5)}, "unsupported run archive version 5 (expected 6)")):
        np.savez_compressed(archive, **{**arrays, **changes})
        assert main(["frames", "--out", str(finished_run), "--x0", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert not list(finished_run.glob("frame_*"))


def test_frames_refuses_unordered_snapshot_times(finished_run, capsys):
    """An archive whose snapshot times do not increase strictly would give
    wrong frames; ``frames`` refuses it with exit code 2."""
    archive = finished_run / "snapshots.npz"
    with np.load(archive) as data:
        arrays = {key: data[key] for key in data.files}
    times = arrays["times"].copy()
    times[[1, 2]] = times[[2, 1]]
    np.savez_compressed(archive, **{**arrays, "times": times})
    assert main(["frames", "--out", str(finished_run), "--x0", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not strictly increasing" in err
    assert not list(finished_run.glob("frame_*"))


@pytest.mark.parametrize("config_text, argv, message", [
    (TINY_CONFIG + "max_steps = 100\n", [], "need 'blown-up'"),  # no fit, no --T
    (TINY_CONFIG, ["--x0", "5"], "unreachable: |x0|=5 (clipped to delta="),
    (TINY_CONFIG, ["--K0", "-1"], "K0 must be positive"),
    (TINY_CONFIG, ["--T", "-1"], "T must be positive"),
    (TINY_CONFIG, ["--window", "0"], "window must be finite and positive, got 0.0"),
    (TINY_CONFIG, ["--window", "-1"], "window must be finite and positive, got -1.0"),
    (TINY_CONFIG, ["--window", "nan"], "window must be finite and positive, got nan"),
    (TINY_CONFIG, ["--x0", "nan"], "need a finite x0 != 0 (x0 = 0 is the blow-up point), "
                                   "got nan"),
    (TINY_CONFIG, ["--x0", "0.1,inf"], "need a finite x0 != 0 (x0 = 0 is the blow-up point), "
                                       "got inf"),
], ids=["no-blowup", "x0-unreachable", "K0-negative", "T-negative", "window-zero",
        "window-negative", "window-nan", "x0-nan", "x0-inf"])
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


# ------------------------------------------------------ unusable paths

def _out_is_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "taken")]


def _out_under_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["verify", "--out", str(tmp_path / "taken" / "report")]


def _artifact_is_directory(command, name):
    """The setup of ``command`` whose artifact ``name`` is taken by a
    directory in its --out; frames first needs a run there."""
    def setup(tmp_path):
        out = tmp_path / "out"
        argv = {"run": ["run", "--config", write_config(tmp_path)],
                "frames": ["frames", "--x0", "0.1"],
                "sweep": ["sweep", "--config", write_config(tmp_path), "--grid", "mu=0:0.1:2",
                          "--workers", "1"],
                "verify": ["verify"]}[command]
        if command == "frames":
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        (out / name).mkdir(parents=True)
        return [*argv, "--out", str(out)]
    return setup


def _summary_not_json(tmp_path):
    (tmp_path / "run_summary.json").write_text("{not json")
    return ["report", "--out", str(tmp_path)]


def _summary_without_keys(tmp_path):
    (tmp_path / "run_summary.json").write_text('{"status": "blown-up"}')
    return ["report", "--out", str(tmp_path)]


@pytest.mark.parametrize("setup, message", [
    (_out_is_file, "cannot write to --out"),
    (_out_under_file, "cannot write to --out"),
    (_summary_not_json, "cannot read the run summary"),
    (_summary_without_keys, "missing key 'manifest'"),
    (_artifact_is_directory("run", "manifest.json"), "manifest.json: Is a directory"),
    (_artifact_is_directory("frames", "frames_summary.json"),
     "frames_summary.json: Is a directory"),
    (_artifact_is_directory("sweep", "sweep_summary.csv"), "sweep_summary.csv: Is a directory"),
    (_artifact_is_directory("verify", "verification_report.json"),
     "verification_report.json: Is a directory"),
], ids=["run-out-is-file", "verify-out-under-file", "report-not-json",
        "report-missing-keys", "run-manifest-is-dir", "frames-summary-is-dir",
        "sweep-summary-is-dir", "verify-report-is-dir"])
def test_unusable_paths_are_config_errors(tmp_path, capsys, setup, message):
    assert main(setup(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no partial report


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


@pytest.mark.parametrize("target, nan, row", [
    ("_propagate", np.nan, "gronwall suite"),
    ("_gradient_values", np.full(257, np.nan), "semigroup grad ratio"),
], ids=["gronwall", "semigroup"])
def test_verify_fails_closed_on_nan(capsys, monkeypatch, target, nan, row):
    """A NaN margin or ratio is a failure, not a value the running maximum drops."""
    monkeypatch.setattr(lemmas, target, lambda *args: nan)
    assert main(["verify"]) == 4
    failing = [line for line in capsys.readouterr().out.splitlines()
               if line.rstrip().endswith("FAIL")]
    assert len(failing) == 1 and failing[0].startswith(row) and "nan" in failing[0]


def test_verify_json_output(capsys):
    assert main(["verify", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["integral_sweep"]["n_failed"] == 0
    assert doc["gronwall"]["n_violations"] == 0


def test_import_verify_and_run_load_no_scipy_package_nor_numpy_random(tmp_path):
    """A fresh interpreter loads no scipy package (neither ``scipy`` nor
    ``scipy.linalg``, ``scipy.integrate`` or ``scipy.optimize``, together
    about 45 MB of peak RSS), not ``numpy.random`` (~6 MB) and not
    ``multiprocessing`` (~1 MB) on ``import blowlab.cli``, while ``verify``
    runs and passes, or while a tiny run (M=64) runs: LAPACK comes from
    scipy's extension module alone, the singular integral is a fixed rule
    in numpy, verify's random instances come from its own SplitMix64
    stream, and only a sweep imports the process pool."""
    run = ["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "run")]
    code = ("import sys, blowlab, blowlab.cli\n"
            "packages = {'scipy', 'scipy.linalg', 'scipy.integrate', 'scipy.optimize',\n"
            "            'numpy.random', 'multiprocessing'}\n"
            "def check():\n"
            "    assert not packages & set(sys.modules), sorted(packages & set(sys.modules))\n"
            "check()\n"
            "assert blowlab.cli.main(['verify']) == 0\n"
            "check()\n"
            f"assert blowlab.cli.main({run!r}) == 0\n"
            "check()\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert (tmp_path / "run" / "snapshots.npz").exists()


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
    with open(out / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    # an error message with a comma stays one cell: no row is longer (None key)
    # or shorter (None value) than the header
    assert all(None not in row and None not in row.values() for row in rows)
    assert [row["status"] for row in rows] == ["blown-up"] + ["config-error"] * 3
    assert rows[1]["error"] == "t_star must be in (0, 1), got 1.5"
    assert rows[2]["error"].startswith("q upper bound violated: q=5.0")


def test_sweep_records_a_bad_cap_or_t_max_as_config_error(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path), "--grid",
                 "blowup_cap=-1:1e4:2,t_max=-1:1:2", "--out", str(out),
                 "--workers", "1"]) == 0
    rows = _summary_rows(out)
    assert [row["status"] for row in rows] == ["config-error"] * 3 + ["blown-up"]
    assert [row["error"] for row in rows[:3]] == [
        "blowup_cap must be finite and positive, got -1.0"] * 2 + [
        "t_max must be none or positive, got -1.0"]


def test_sweep_records_a_tiny_R_as_config_error(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path), "--grid", "R=1e-300:1:2",
                 "--out", str(out), "--workers", "1"]) == 0
    rows = _summary_rows(out)
    assert [row["status"] for row in rows] == ["config-error", "blown-up"]
    assert rows[0]["error"] == ("R must be finite and positive with a finite 1/h^2 "
                                "(h = R/M), got R=1e-300")


def test_sweep_refuses_non_integral_int_keys(tmp_path):
    """A grid point that puts a non-integral value on an int key is a
    config-error naming it; the points around it run as labelled."""
    config = write_config(tmp_path)
    for spec, statuses, error in (
            ("M=64:65:3", ["blown-up", "config-error", "blown-up"],
             "M must be an integer, got 64.5"),
            # dim=2 passes the int check and fails the dim=2 q window
            ("dim=1:2:3", ["blown-up", "config-error", "config-error"],
             "dim must be an integer, got 1.5")):
        out = tmp_path / spec.partition("=")[0]
        assert main(["sweep", "--config", config, "--grid", spec,
                     "--out", str(out), "--workers", "1"]) == 0
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == statuses
        assert rows[1]["error"] == error
    assert load_snapshots(tmp_path / "M" / "point_0002" / "snapshots.npz").config.grid.M == 65
    assert rows[2]["error"].startswith("q lower bound violated")


def test_sweep_points_resolve_their_own_beta(tmp_path):
    """With no beta in the file, every point takes the midpoint of its own
    window (the base point's resolved beta is outside the p=4.5 window), and
    the manifest echoes the base point's resolved beta."""
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--grid", "p=3.5:4.5:3",
                 "--out", str(out), "--workers", "1"]) == 0
    with open(out / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["blown-up"] * 3
    for row in rows:
        params = load_snapshots(out / f"point_{int(row['index']):04d}" / "snapshots.npz"
                                ).config.params
        window = beta_window(params.p, params.q, params.dim, params.mu)
        assert params.beta == pytest.approx(0.5 * (window.lo + window.hi), rel=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["beta"] == load_config(config).params.beta


def _summary_rows(out):
    with open(out / "sweep_summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_point_is_its_run_alone(config, out, row):
    overrides = {key: float(row[key]) for key in ("M", "mu", "blowup_cap") if key in row}
    run_config = load_config(config, overrides)
    u0 = profile_seeded_field(run_config.solver.grid, run_config.params,
                              t_star=run_config.t_star)
    stored = load_snapshots(out / f"point_{int(row['index']):04d}" / "snapshots.npz")
    assert_same_steps(stored, run_until_blowup(u0, run_config.solver))


def test_sweep_is_the_same_at_one_and_two_workers(tmp_path):
    """Points that share a grid are stepped together in chunks, and the
    chunks depend on --workers; neither changes a byte of the summary, and
    each point's archive holds its run stepped alone.  The grid spans two
    M values and a non-integral M, which is a config-error."""
    config = write_config(tmp_path)
    spec = "M=48:65:3,mu=0:0.2:3"
    outs = []
    for workers in ("1", "2"):
        outs.append(tmp_path / f"workers{workers}")
        assert main(["sweep", "--config", config, "--grid", spec,
                     "--out", str(outs[-1]), "--workers", workers]) == 0
    assert ((outs[0] / "sweep_summary.csv").read_bytes()
            == (outs[1] / "sweep_summary.csv").read_bytes())
    rows = _summary_rows(outs[1])
    assert [row["status"] for row in rows] == ["blown-up"] * 3 + ["config-error"] * 3 + [
        "blown-up"] * 3
    for row in rows:
        if row["status"] == "blown-up":
            for out in outs:
                _assert_point_is_its_run_alone(config, out, row)


@pytest.mark.parametrize("stage", ["seed", "step", "estimate"])
def test_one_failing_point_never_aborts_a_sweep(tmp_path, monkeypatch, stage):
    """An exception while seeding, stepping or estimating one point of a
    chunk becomes that point's error row; the other points finish as they
    would alone."""
    config = write_config(tmp_path)
    target = {"seed": (cli, "profile_seeded_field"), "step": (solver, "_dt_of"),
              "estimate": (cli, "estimate_T")}[stage]
    original = getattr(*target)

    def failing(*args, **kwargs):
        params = (args[1] if stage == "seed" else args[0].params if stage == "step"
                  else args[0].config.params)
        if params.mu == 0.1:
            raise RuntimeError(f"injected {stage} failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(*target, failing)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--grid", "mu=0:0.2:3",
                 "--out", str(out), "--workers", "1"]) == 0
    monkeypatch.undo()
    rows = _summary_rows(out)
    assert [row["status"] for row in rows] == ["blown-up", "error", "blown-up"]
    assert rows[1]["error"] == f"RuntimeError: injected {stage} failure"
    for row in (rows[0], rows[2]):
        _assert_point_is_its_run_alone(config, out, row)


def test_failed_batch_writes_each_point_once(tmp_path, monkeypatch, capsys):
    """Each point's files are written as its run leaves the batch.  When the
    batch then fails, only the points still in it are stepped again, alone:
    every point gets one summary row and one set of files, its run alone."""
    config = write_config(tmp_path)
    summaries, failures = [], []
    step, summary = solver._ars343, cli._point_summary

    def failing_step(values, dts, batch):
        if 1 < len(dts) < 3:  # a row has left the batch of three
            failures.append(len(dts))
            raise RuntimeError("injected batch failure")
        return step(values, dts, batch)

    def counted_summary(index, *args):
        summaries.append((index, len(failures)))
        return summary(index, *args)

    monkeypatch.setattr(solver, "_ars343", failing_step)
    monkeypatch.setattr(cli, "_point_summary", counted_summary)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--grid", "blowup_cap=1e3:1e4:3",
                 "--out", str(out), "--workers", "1"]) == 0
    monkeypatch.undo()
    assert failures == [2]
    err = capsys.readouterr().err
    assert "sweep: batch failed, stepping its points alone" in err
    assert "RuntimeError: injected batch failure" in err
    assert sorted(index for index, _ in summaries) == [0, 1, 2]
    assert summaries[0][1] == 0  # written before the batch failed
    rows = _summary_rows(out)
    assert [row["status"] for row in rows] == ["blown-up"] * 3
    for row in rows:
        _assert_point_is_its_run_alone(config, out, row)


def _points(grids: list[int], per_grid: int) -> list[tuple]:
    return [(i, {}, load_config(None, {"M": M}))
            for i, M in enumerate(M for M in grids for _ in range(per_grid))]


@pytest.mark.parametrize("cpus,workers,grids,per_grid,sizes,pool", [
    (2, 4, [256], 15, [8, 7], 2),           # the default --workers on 2 CPUs
    (1, 4, [256], 15, [15], 1),
    (2, 1, [256], 15, [15], 1),
    (8, 4, [256], 15, [4, 4, 4, 3], 4),
    (8, 8, [64, 128, 256], 1, [1, 1, 1], 3),  # no more processes than chunks
])
def test_sweep_pool_is_clamped_to_cpus_and_chunks(monkeypatch, cpus, workers, grids, per_grid,
                                                  sizes, pool):
    """The usable CPUs cap --workers, which sizes the chunks, and the pool
    has at most one process per chunk."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    chunks, processes = cli._sweep_plan(_points(grids, per_grid), workers)
    assert [len(chunk) for chunk in chunks] == sizes
    assert processes == pool


def test_sweep_starts_the_clamped_pool(tmp_path, monkeypatch):
    """``--workers 4`` on 2 usable CPUs: two chunks in a pool of 2 (here an
    executor that runs each job as it is submitted)."""
    widths = []

    class InlinePool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            future = Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--grid", "mu=0:0.2:3",
                 "--out", str(out), "--workers", "4"]) == 0
    assert widths == [2]
    assert [row["status"] for row in _summary_rows(out)] == ["blown-up"] * 3


@pytest.mark.parametrize("tick,lines", [
    (1.5, ["sweep: 2/3 points done (3.0 s)"]),  # the first and third chunk are too soon
    (0.5, []),                                  # a sweep shorter than 2 s prints nothing
])
def test_sweep_heartbeat_prints_at_most_every_two_seconds(tmp_path, capsys, monkeypatch,
                                                          tick, lines):
    """Three grids make three chunks; the clock moves ``tick`` seconds per
    reading, and the parent reads it at the start and as each chunk ends."""
    clock = itertools.count(0.0, tick)
    monkeypatch.setattr(cli, "perf_counter", lambda: next(clock))
    config = write_config(tmp_path)
    assert main(["sweep", "--config", config, "--grid", "M=32:64:3",
                 "--out", str(tmp_path / "sweep"), "--workers", "1"]) == 0
    assert capsys.readouterr().err.splitlines() == lines


def test_sweep_bad_grid_spec(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["sweep", "--config", config, "--grid", "nonsense",
                 "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("spec", [
    "p=3:4",            # two fields
    "p=3:4:x",          # n not an integer
    "p=3:4:2.0",
    "p=3:4:-1",         # n below 1
    "p=3:4:0",
    "p=nan:4:2",        # bounds not finite
    "p=3:inf:2",
    "p=a:4:2",
    "zz=1:2:2",         # not a config key
    "boundary=1:2:2",   # not a numeric key
    "record_stride=1:2:2",  # former keys of the snapshot schedule
    "snapshot_growth=1:2:2",
    "mu=0:0.1:2,p=3:4:2,p=3:4:2",  # repeated key
])
def test_sweep_malformed_grid_part_exits_2_naming_it(tmp_path, capsys, spec):
    config = write_config(tmp_path)
    out = tmp_path / "s"
    assert main(["sweep", "--config", config, "--grid", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--grid part {spec.split(',')[-1]!r}" in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before any point runs


# ----------------------------------------------------------------- report

def test_report_summarizes_run(finished_run, capsys):
    assert main(["frames", "--out", str(finished_run), "--x0", "0.2"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(finished_run)]) == 0
    out = capsys.readouterr().out
    assert "status: blown-up" in out
    assert "T_est=" in out
    assert "x0=0.2" in out
    # telemetry: the wall-time split
    summary = json.loads((finished_run / "run_summary.json").read_text())
    assert set(summary["wall_s"]) == {"stepping", "writes"}
    assert all(v >= 0.0 for v in summary["wall_s"].values())
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
    with np.load(out / "frame_x0_0p2.npz", allow_pickle=False) as frame:
        assert all(np.all(np.isfinite(frame[key])) for key in frame.files)
    # numpy's skiprows counts the comment lines too, so skip through the header
    header_row = (out / "field_final.csv").read_text().splitlines().index("r,u,du_dr,J")
    field = np.loadtxt(out / "field_final.csv", delimiter=",", comments="#",
                       skiprows=header_row + 1)
    assert field.shape == (65, 4)
    assert field[0, 0] == 0.0 and field[-1, 0] == 1.0


def test_report_missing_artifacts(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
