import json
import math

import pytest

from causalrd import cli, solver
from causalrd.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    emit_csv,
    main,
    run,
)
from causalrd.errors import InternalConsistencyError
from causalrd.solver import CurvePoint

LN2 = math.log(2.0)


def write_config(tmp_path, name="cfg.json", drop=(), **overrides):
    """A valid solve_s config with ``overrides`` set and the keys ``drop`` removed."""
    cfg = {
        "schema_version": 1,
        "horizon": 2,
        "source": {"type": "iid", "px": [0.5, 0.5]},
        "distortion": "hamming",
        "mode": "solve_s",
        "s": -2.0,
        "solver": {"fp_tol": 1e-10},
        "output": {"format": "csv", "units": "nats"},
    }
    cfg.update(overrides)
    for key in drop:
        del cfg[key]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_s_zero_multiplier(tmp_path):
    path = write_config(tmp_path, s=0.0)
    out = tmp_path / "out.csv"
    assert run(path, out=str(out)) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[2] == "0"          # R_total
    assert fields[5] == "true"


def test_curve_mode_rows_and_checks(tmp_path):
    svals = [-(0.4 * (10.0 / 0.4) ** (k / 19.0)) for k in range(20)]
    path = write_config(tmp_path, mode="curve", s_values=svals)
    out = tmp_path / "curve.csv"
    assert run(path, out=str(out), checks=("convexity", "dominance")) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    report = json.loads((tmp_path / "curve.csv.json").read_text())
    assert report["curve_checks"]["monotone_ok"]
    assert report["curve_checks"]["convex_ok"]
    assert all(c["pass"] for c in report["checks"])
    # the reported tolerance is the one the curve's checks used
    convexity = next(c for c in report["checks"] if c["check"] == "convexity")
    assert convexity["tolerance"] == solver.CURVE_TOL


def test_convexity_check_outside_curve_mode_notes_no_curve_and_passes(tmp_path):
    out = tmp_path / "s.csv"
    assert run(write_config(tmp_path), out=str(out), checks=("convexity",)) == EXIT_OK
    check, = json.loads((tmp_path / "s.csv.json").read_text())["checks"]
    assert check["check"] == "convexity" and check["pass"] is True
    assert check["value"] is None and check["note"] == "no curve in this mode"


def test_bad_kernel_row_exits_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "horizon": 1,
        "source": {"type": "general", "x_sizes": [2], "kernels": [[[0.5, 0.4]]]},
        "distortion": "hamming",
        "mode": "solve_s",
        "s": -1.0,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == EXIT_CONFIG


def test_bad_kernel_row_message_names_stage_and_history(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "horizon": 2,
        "source": {"type": "general", "x_sizes": [2, 2],
                   "kernels": [[[0.5, 0.5]], [[0.5, 0.4], [0.5, 0.5]]]},
        "distortion": "hamming",
        "mode": "solve_s",
        "s": -1.0,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "stage 1" in err and "history code 0" in err


def test_nan_kernel_entry_exits_config_naming_the_source(tmp_path, capsys):
    # Python's json reads NaN; the row check refuses it before any solve
    cfg = {
        "schema_version": 1,
        "horizon": 1,
        "source": {"type": "general", "x_sizes": [2], "kernels": [[[math.nan, 1.0]]]},
        "distortion": "hamming",
        "mode": "solve_s",
        "s": -1.0,
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "$.source" in err and "sums to nan" in err


def test_schema_violations(tmp_path, capsys):
    assert run(write_config(tmp_path, schema_version=2)) == EXIT_CONFIG
    assert run(write_config(tmp_path, mode="nope")) == EXIT_CONFIG
    assert run(write_config(tmp_path, mode="curve")) == EXIT_CONFIG   # no s_values
    assert run(write_config(tmp_path, s=1.0)) == EXIT_CONFIG
    missing = tmp_path / "missing.json"
    assert run(str(missing)) == EXIT_CONFIG
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    for text, message in [('{"schema_version": 1,', "config is not valid JSON"),
                          ("[1, 2]", "config root must be an object")]:
        bad.write_text(text)
        assert run(str(bad), out=str(tmp_path / "out.csv")) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


def test_infeasible_target_exit(tmp_path):
    path = write_config(tmp_path, mode="target_d", D_target=0.2,
                        distortion={"single_letter": [[1.0, 2.0], [3.0, 1.0]]})
    out = tmp_path / "out.csv"
    assert run(path, out=str(out)) == EXIT_INFEASIBLE
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[2] == "inf"


def test_units_bits_conversion(tmp_path):
    path = write_config(tmp_path, mode="target_d", D_target=0.1, horizon=2)
    out_n = tmp_path / "n.csv"
    out_b = tmp_path / "b.csv"
    assert run(path, out=str(out_n), units="nats") == EXIT_OK
    assert run(path, out=str(out_b), units="bits") == EXIT_OK
    rn = out_n.read_text().splitlines()[1].split(",")
    rb = out_b.read_text().splitlines()[1].split(",")
    # rendered at 12 significant digits, so compare at that precision
    assert abs(float(rb[2]) - float(rn[2]) / LN2) < 1e-11
    assert abs(float(rb[3]) - float(rn[3]) / LN2) < 1e-11
    assert rn[1] == rb[1]            # distortion not converted


def test_emit_csv_formatting(tmp_path):
    p = CurvePoint(s=-0.0, distortion_per_symbol=0.5, rate_total_nats=LN2,
                   rate_per_symbol_nats=LN2, sweeps=1, converged=True,
                   residual=0.0)
    path = tmp_path / "one.csv"
    emit_csv([p], str(path), units="bits")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,0.5,1,1,1,true,0"


def test_deterministic_reruns_bit_identical(tmp_path):
    path = write_config(tmp_path, mode="curve",
                        s_values=[-0.5, -1.0, -2.0, -4.0], horizon=3,
                        source={"type": "markov", "init": [0.5, 0.5],
                                "transition": [[0.7, 0.3], [0.3, 0.7]]})
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(path, out=str(out1)) == EXIT_OK
    assert run(path, out=str(out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_config_echo_roundtrip(tmp_path):
    path = write_config(tmp_path, mode="target_d", D_target=0.15, horizon=2)
    out1 = tmp_path / "a.csv"
    assert run(path, out=str(out1)) == EXIT_OK
    echo = json.loads((tmp_path / "a.csv.json").read_text())["config"]
    path2 = tmp_path / "echo.json"
    path2.write_text(json.dumps(echo))
    out2 = tmp_path / "b.csv"
    assert run(str(path2), out=str(out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_horizon_sweep_mode(tmp_path):
    path = write_config(tmp_path, mode="horizon_sweep", D_target=0.1,
                        horizons=[1, 2, 3],
                        source={"type": "iid", "px": [0.5, 0.5]})
    out = tmp_path / "h.csv"
    assert run(path, out=str(out)) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    rates = [float(l.split(",")[3]) for l in lines[1:]]
    assert max(rates) - min(rates) < 1e-6          # iid family is flat
    report = json.loads((tmp_path / "h.csv.json").read_text())
    assert report["horizons"] == [1, 2, 3]


def test_verify_mode_runs_checks(tmp_path):
    path = write_config(tmp_path, mode="verify", s=-2.0, horizon=2,
                        source={"type": "markov", "init": [0.5, 0.5],
                                "transition": [[0.7, 0.3], [0.3, 0.7]]})
    out = tmp_path / "v.csv"
    assert run(path, out=str(out), seed=7) == EXIT_OK
    report = json.loads((tmp_path / "v.csv.json").read_text())
    names = {c["check"] for c in report["checks"]}
    assert names == {"dominance", "mc-residual", "stationarity"}
    assert all(c["pass"] for c in report["checks"])


def test_mode_override_flag(tmp_path):
    path = write_config(tmp_path, mode="solve_s", s=-1.0, D_target=0.2)
    out = tmp_path / "o.csv"
    assert run(path, mode="target_d", out=str(out)) == EXIT_OK
    d = float(out.read_text().splitlines()[1].split(",")[1])
    assert abs(d - 0.2) <= 1e-6


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path, s=-1.0)
    out = tmp_path / "c.csv"
    rc = main(["run", path, "--out", str(out)])
    assert rc == EXIT_OK
    assert out.exists()


def test_json_output_format(tmp_path):
    path = write_config(tmp_path, output={"format": "json", "units": "nats"})
    out = tmp_path / "r.json"
    assert run(path, out=str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["points"][0]["converged"] is True


STAGE_TABLES = {"stage_tables": [[[0, 1], [1, 0]],
                                 [[0, 1, 1, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1]]]}


@pytest.mark.parametrize("overrides, field", [
    (dict(mode="horizon_sweep", D_target=0.1, horizons=[1, 2], distortion=STAGE_TABLES),
     "$.distortion"),
    (dict(mode="target_d", D_target=-0.1), "$.D_target"),
    (dict(solver={"fp_tol": 0}), "$.solver.fp_tol"),
    (dict(solver={"damping": 2}), "$.solver.damping"),
    (dict(solver={"max_sweeps": 0}), "$.solver.max_sweeps"),
    (dict(mode="horizon_sweep", D_target=0.1, horizons=[0, 1]), "$.horizons"),
    (dict(solver={"fp_tol": "tight"}), "$.solver.fp_tol"),
    (dict(mode="target_d", D_target=0.1, s="x"), "$.s"),
    (dict(mode="curve", s_values=[-1.0, "a"]), "$.s_values"),
    (dict(mode="horizon_sweep", D_target=0.1, horizons=[1, "b"]), "$.horizons"),
    (dict(distortion={"single_letter": [[0, 1, 1], [1, 0, 1]]}), "$.distortion"),
    (dict(solver={"max_sweeps": 10 ** 400}), "$.solver.max_sweeps"),
    (dict(mode="horizon_sweep", D_target=0.1, horizons=[2, 30]), "$.horizons"),
    (dict(solver={"damping": 0.5}), "$.solver.damping"),
    (dict(source={"type": "general", "x_sizes": [2, 2], "memory": 1.5,
                  "kernels": [[[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]}), "$.source"),
    (dict(horizon=True), "$.horizon"),
    (dict(schema_version=True), "$.schema_version"),
    (dict(horizon=10 ** 400), "$.horizon"),
    (dict(source={"type": "general", "x_sizes": [2.5, 2],
                  "kernels": [[[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]}), "$.source"),
    (dict(output={"path": ["out.csv"]}), "$.output.path"),
    (dict(horizon=10 ** 6), "$.source"),
    (dict(drop=["source"]), "$.source"),
    (dict(source="iid"), "$.source"),
    (dict(source={"type": "poisson"}), "$.source.type"),
    (dict(y_sizes=[2, 3]), "$.y_sizes"),
    (dict(y_sizes=[2, 3], source={"type": "markov", "init": [0.5, 0.5],
                                  "transition": [[0.9, 0.1], [0.1, 0.9]]}), "$.y_sizes"),
    (dict(distortion={"rho": [[0, 1], [1, 0]]}), "$.distortion"),
    (dict(solver=[1e-10]), "$.solver"),
    (dict(output="csv"), "$.output"),
    (dict(output={"units": "hartleys"}), "$.output.units"),
    (dict(output={"format": "xml"}), "$.output.format"),
    (dict(drop=["s"]), "$.s"),
    (dict(mode="target_d"), "$.D_target"),
    (dict(mode="horizon_sweep", D_target=0.1), "$.horizons"),
    (dict(mode="horizon_sweep", D_target=0.1, horizons=[1, 2], source={"type": "general", "x_sizes": [2, 2],
                  "kernels": [[[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]}),
     "$.source"),
    (dict(mode="verify", drop=["s"]), "$.s or $.D_target"),
    (dict(checks=["nope"]), "--check"),
], ids=["sweep-stage-tables", "negative-D", "fp_tol-0", "damping-2", "max_sweeps-0",
        "horizon-0", "fp_tol-string", "s-string", "s_values-string", "horizons-string",
        "rho-shape", "max_sweeps-huge", "horizons-over-budget", "damping-half",
        "memory-float", "horizon-bool", "schema_version-bool", "horizon-huge",
        "x_sizes-fraction", "output-path-list", "horizon-over-budget",
        "source-missing", "source-string", "source-type-unknown", "y_sizes-iid",
        "y_sizes-markov", "distortion-no-key", "solver-list", "output-string",
        "units-unknown", "format-unknown", "solve_s-no-s", "target_d-no-D",
        "sweep-no-horizons", "sweep-general-source", "verify-no-s-or-D", "check-unknown"])
def test_bad_config_exits_config_before_any_solve(tmp_path, capsys, overrides, field):
    out = tmp_path / "out.csv"
    config = {k: v for k, v in overrides.items() if k != "checks"}     # checks: run's own
    assert run(write_config(tmp_path, **config), out=str(out),
               checks=overrides.get("checks", ())) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.csv.json").exists()


def test_damping_one_is_accepted_and_changes_nothing(tmp_path):
    plain = tmp_path / "plain.csv"
    damped = tmp_path / "damped.csv"
    assert run(write_config(tmp_path), out=str(plain)) == EXIT_OK
    assert run(write_config(tmp_path, name="d.json", solver={"fp_tol": 1e-10, "damping": 1}),
               out=str(damped)) == EXIT_OK
    assert plain.read_bytes() == damped.read_bytes()


def test_horizon_sweep_honours_y_sizes(tmp_path):
    path = write_config(tmp_path, mode="horizon_sweep", D_target=0.3, horizons=[1, 2],
                        y_sizes=[3, 3],
                        distortion={"single_letter": [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]})
    out = tmp_path / "h.csv"
    assert run(path, out=str(out)) == EXIT_OK
    assert len(out.read_text().splitlines()) == 3


def test_verify_at_distortion_floor_passes_dominance(tmp_path):
    # the target search stops at the multiplier cap here (s = -524288), and the
    # dominance check runs Blahut-Arimoto once at that s
    path = write_config(tmp_path, mode="verify", D_target=0.24,
                        source={"type": "iid", "px": [0.6, 0.4]},
                        distortion={"single_letter": [[0.2, 0.200002], [0.5, 0.3]]})
    out = tmp_path / "v.csv"
    assert run(path, out=str(out)) == EXIT_OK
    report = json.loads((tmp_path / "v.csv.json").read_text())
    dominance = [c for c in report["checks"] if c["check"] == "dominance"][0]
    assert dominance["pass"] and math.isfinite(dominance["value"])
    assert report["points"][0]["target_met"] is True


def test_missed_distortion_target_exits_numerical(tmp_path, monkeypatch):
    # with TARGET_DIST_TOL at 1e-9 the search at the floor stops at the
    # multiplier cap, 4.3e-7 above the target, so the solve has target_met False
    monkeypatch.setattr(solver, "TARGET_DIST_TOL", 1e-9)
    path = write_config(tmp_path, mode="target_d", D_target=0.24,
                        source={"type": "iid", "px": [0.6, 0.4]},
                        distortion={"single_letter": [[0.2, 0.200002], [0.5, 0.3]]})
    out = tmp_path / "t.csv"
    assert run(path, out=str(out)) == EXIT_NUMERICAL
    assert out.read_text().splitlines()[1].split(",")[5] == "true"     # converged
    report = json.loads((tmp_path / "t.csv.json").read_text())
    assert report["points"][0]["target_met"] is False


def test_numerical_failure_exits_numerical_with_an_error_report(tmp_path, monkeypatch,
                                                                capsys):
    def broken(source, spec, config):
        raise InternalConsistencyError("fixed point looks broken")

    monkeypatch.setattr(cli, "fixed_point_solve", broken)
    out = tmp_path / "f.csv"
    assert run(write_config(tmp_path), out=str(out)) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    report = json.loads((tmp_path / "f.csv.json").read_text())
    assert "fixed point looks broken" in report["error"]
    assert report["timings"]["solve_seconds"] >= 0.0
    assert not out.exists()


def test_curve_mode_failed_point_reads_nan_and_exits_numerical(tmp_path, monkeypatch):
    real = solver.fixed_point_solve

    def failing_at_minus_one(source, spec, config):
        if config.s == -1.0:
            raise InternalConsistencyError("injected")
        return real(source, spec, config)

    monkeypatch.setattr(solver, "fixed_point_solve", failing_at_minus_one)
    path = write_config(tmp_path, mode="curve", s_values=[-0.5, -1.0, -2.0])
    out = tmp_path / "c.csv"
    assert run(path, out=str(out)) == EXIT_NUMERICAL
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    failed = [r for r in rows if r[0] == "-1"]
    assert len(rows) == 3 and len(failed) == 1
    assert failed[0][1:4] == ["nan", "nan", "nan"] and failed[0][5] == "false"
    points = json.loads((tmp_path / "c.csv.json").read_text())["points"]
    assert [p["target_met"] for p in points if "error" not in p] == [True, True]
    assert [p["s"] for p in points if "error" in p and "target_met" not in p] == [-1.0]


def test_negative_seed_exits_config_before_any_solve(tmp_path, capsys, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved despite a bad --seed")

    monkeypatch.setattr(cli, "fixed_point_solve", solve)
    path = write_config(tmp_path, mode="verify")
    out = tmp_path / "v.csv"
    assert main(["run", path, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "v.csv.json").exists()


# perfbench's cli_verify config: Markov flip 0.3, n = 4, D = 0.2, verify mode
CLI_VERIFY = dict(mode="verify", horizon=4, D_target=0.2, solver={},
                  source={"type": "markov", "init": [0.5, 0.5],
                          "transition": [[0.7, 0.3], [0.3, 0.7]]})


def _dominance(tmp_path):
    report = json.loads((tmp_path / "v.csv.json").read_text())
    return next(c for c in report["checks"] if c["check"] == "dominance"), report


def test_verify_runs_one_blahut_arimoto_at_the_solves_multiplier(tmp_path, monkeypatch):
    calls, real = [], cli.blahut_arimoto

    def counted(px, rho, s):
        calls.append(s)
        return real(px, rho, s)

    monkeypatch.setattr(cli, "blahut_arimoto", counted)
    assert run(write_config(tmp_path, **CLI_VERIFY), out=str(tmp_path / "v.csv")) == EXIT_OK
    dominance, report = _dominance(tmp_path)
    assert calls == [report["points"][0]["s"]]
    # J_cl(s) - J(s) sits below the pointwise R_cl(D) - R(D) = -0.1144434
    assert dominance["pass"] and dominance["value"] == pytest.approx(-0.1145793, abs=1e-7)


def test_dominance_fails_on_a_rate_below_the_classical_lagrangian(tmp_path, monkeypatch):
    real = cli._solve

    def lowered(rc):
        solves, curve = real(rc)
        for _, _, r in solves:
            r.rate_nats -= 1e-3
        return solves, curve

    monkeypatch.setattr(cli, "_solve", lowered)
    path = write_config(tmp_path, mode="verify", horizon=3, s=-2.0,
                        source={"type": "iid", "px": [0.6, 0.4]})
    assert run(path, out=str(tmp_path / "v.csv"), checks=("dominance",)) == EXIT_NUMERICAL
    dominance, _ = _dominance(tmp_path)
    assert not dominance["pass"] and dominance["value"] == pytest.approx(1e-3, abs=1e-8)


@pytest.mark.parametrize("px", [[0.6, 0.4], [0.3, 0.7]])
@pytest.mark.parametrize("horizon", [1, 3])
@pytest.mark.parametrize("s", [-0.5, -2.0, -8.0])
def test_dominance_is_sharp_on_iid_sources(tmp_path, px, horizon, s):
    # the causal and classical curves coincide on an IID source, so do the
    # Lagrangians, to the causal solve's fp_tol of 1e-10 (at the default 1e-9,
    # [0.3, 0.7] at n = 3 and s = -0.5 reads -1.6e-9).  Blahut-Arimoto takes
    # 294,404 iterations at [0.6, 0.4], n = 3, s = -0.5: its map's slowest
    # mode there contracts by 1 - 9e-6 per step
    path = write_config(tmp_path, mode="verify", horizon=horizon, s=s,
                        source={"type": "iid", "px": px})
    assert run(path, out=str(tmp_path / "v.csv"), checks=("dominance",)) == EXIT_OK
    dominance, _ = _dominance(tmp_path)
    assert abs(dominance["value"]) <= 1e-9
