"""Command-line surface: schema validation, artifacts, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from axiswirl.cli import (
    OUTPUT_ROOT_ENV,
    SCHEMA_VERSION,
    SchemaError,
    check_exponents_cmd,
    main,
    mms_cmd,
    read_checkpoint,
    run_scenario,
    sweep_cmd,
    validate_scenario,
    write_checkpoint,
)
from axiswirl.errors import ConfigurationError
from axiswirl.fields import zero_state
from axiswirl.grid import MAX_CELLS, build_grid
from axiswirl.solver import SimConfig, Trajectory
from axiswirl import mms


def _scenario(**over):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "grid": {"n_rho": 16, "n_z": 8},
        "solver": {"nu": 0.1, "t_end": 0.01, "dt": 1e-3},
        "exponents": {"a": 6, "b": 4, "gamma": 0},
        "initial_data": {"kind": "decaying_swirl", "params": {"nu": 0.1}},
        "output": {"directory": "out"},
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# --- schema -----------------------------------------------------------------

def test_validate_fills_defaults():
    cfg = validate_scenario({"schema_version": SCHEMA_VERSION})
    assert cfg["grid"]["n_rho"] == 32
    assert cfg["solver"]["nu"] == 0.1
    assert cfg["exponents"] == {"a": 6.0, "b": 4.0, "gamma": 0.0, "delta": None}
    assert cfg["monitor"]["q"] == 4
    assert cfg["initial_data"]["kind"] == "zero"
    assert cfg["forcing"]["kind"] == "zero"
    assert cfg["output"]["write_checkpoints"] is False


def test_solver_section_is_the_simconfig_fields():
    # run_scenario builds SimConfig(**cfg["solver"])
    cfg = validate_scenario({"schema_version": SCHEMA_VERSION})
    assert list(SimConfig.__slots__) == list(cfg["solver"])


def test_validate_accepts_inf_b():
    cfg = validate_scenario(_scenario(exponents={"a": 6, "b": "inf", "gamma": 0}))
    assert math.isinf(cfg["exponents"]["b"])


@pytest.mark.parametrize("doc,path_fragment", [
    ({}, "$.schema_version"),
    (_scenario(schema_version=99), "$.schema_version"),
    (_scenario(grid={"n_rho": 1}), "$.grid"),
    (_scenario(solver={"nu": -1}), "$.solver.nu"),
    (_scenario(solver={"t_end": 0.0}), "$.solver.t_end"),
    (_scenario(exponents={"a": 3, "b": 2, "gamma": 0}), "$.exponents"),
    (_scenario(exponents={"a": 6, "b": "lots", "gamma": 0}), "$.exponents.b"),
    (_scenario(monitor={"q": 3}), "$.monitor.q"),
    (_scenario(initial_data={"kind": "vortex_sheet"}), "$.initial_data.kind"),
    (_scenario(initial_data={"kind": "file"}), "$.initial_data.path"),
    (_scenario(initial_data={"kind": "zero"},
               forcing={"kind": "manufactured"}), "$.forcing.kind"),
    (_scenario(output={"directory": ""}), "$.output.directory"),
])
def test_validate_rejects(doc, path_fragment):
    with pytest.raises(SchemaError) as exc:
        validate_scenario(doc)
    assert path_fragment in str(exc.value)


@pytest.mark.parametrize("solver,path", [
    ({"dt": 0.0}, "$.solver.dt"),
    ({"dt": -1.0}, "$.solver.dt"),
    ({"cfl_safety": 0.0}, "$.solver.cfl_safety"),
    ({"cfl_safety": -1.0}, "$.solver.cfl_safety"),
    ({"checkpoint_stride": 0}, "$.solver.checkpoint_stride"),
    ({"t_end": math.inf}, "$.solver.t_end"),
    ({"t_start": -math.inf}, "$.solver.t_start"),
], ids=["dt_zero", "dt_negative", "cfl_zero", "cfl_negative", "stride_zero",
        "t_end_infinite", "t_start_infinite"])
def test_validate_rejects_solver_numbers(solver, path):
    with pytest.raises(SchemaError) as exc:
        validate_scenario(_scenario(solver={"nu": 0.1, "t_end": 0.01, **solver}))
    assert exc.value.path == path


# --- checkpoints --------------------------------------------------------------

_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _states(draw):
    g = build_grid(draw(st.integers(2, 16)), draw(st.integers(2, 16)),
                   rho_max=draw(st.floats(1e-3, 1e3)),
                   z_min=draw(st.floats(-1e3, 0.0, exclude_max=True)),
                   z_max=draw(st.floats(1e-3, 1e3)))
    fields = draw(hnp.arrays(np.float64, (4, *g.shape), elements=_FINITE))
    return zero_state(g).replace_fields(*fields, time=draw(_FINITE))


@settings(max_examples=60, deadline=None)
@given(state=_states())
def test_checkpoint_round_trip(state):
    # the grid, the time and every field bit for bit, so the hash as well
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ck.bin")
        write_checkpoint(path, state)
        back = read_checkpoint(path)
    assert back.grid == state.grid
    assert back.time == state.time
    for name in ("u_rho", "u_phi", "u_z", "pressure"):
        assert getattr(back, name).tobytes() == getattr(state, name).tobytes()
    assert (Trajectory([back]).checkpoint_hash(0)
            == Trajectory([state]).checkpoint_hash(0))


def test_manifest_checkpoint_hashes_are_over_the_fields(tmp_path, monkeypatch):
    # SHA-256 of u_rho, u_phi, u_z and p as float64 in (n_rho, n_z)
    # row-major order; neither the file's hash nor its rho-fastest payload's
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(_write(tmp_path, _scenario(
        grid={"n_rho": 12, "n_z": 6},
        output={"directory": "out", "write_checkpoints": True}))) == 0
    outdir = tmp_path / "out"
    manifest = json.loads((outdir / "manifest.json").read_text())
    paths = sorted(outdir.glob("checkpoint_*.bin"))
    assert len(paths) == len(manifest["checkpoint_hashes"]) > 1
    for path, recorded in zip(paths, manifest["checkpoint_hashes"]):
        s = read_checkpoint(str(path))
        fields = [np.asarray(getattr(s, n), dtype=np.float64)
                  for n in ("u_rho", "u_phi", "u_z", "pressure")]
        assert recorded == hashlib.sha256(
            b"".join(f.tobytes(order="C") for f in fields)).hexdigest()
        raw = path.read_bytes()
        payload = raw[raw.index(b"\n") + 1:]
        assert recorded not in (hashlib.sha256(raw).hexdigest(),
                                hashlib.sha256(payload).hexdigest())


def test_checkpoint_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(ConfigurationError):
        read_checkpoint(str(p))


def test_checkpoint_rejects_non_finite_samples(tmp_path, monkeypatch, capsys):
    g = build_grid(8, 8)
    state = mms.sample_state(mms.make_solution("taylor_vortex_swirl", {}), g, 0.0)
    u_z = state.u_z.copy()
    u_z[2, 3] = np.nan
    path = str(tmp_path / "nan.bin")
    write_checkpoint(path, state.replace_fields(u_z=u_z))
    with pytest.raises(ConfigurationError) as exc:
        read_checkpoint(path)
    assert path in str(exc.value) and "u_z" in str(exc.value)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 8, "n_z": 8},
        initial_data={"kind": "file", "path": path}))
    assert run_scenario(scenario) == 2
    assert "non-finite samples in field u_z" in capsys.readouterr().err


def _edit_header(path, edit):
    """Rewrite the JSON header line of a checkpoint file through edit()."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    edit(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("edit,key", [
    (lambda h: h.update(fields=["u_rho", "vorticity"]), "fields"),
    (lambda h: h["grid"].pop("n_z"), "grid.n_z"),
    (lambda h: h.update(time="abc"), "time"),
], ids=["unknown_field", "missing_n_z", "non_numeric_time"])
def test_checkpoint_rejects_malformed_header(tmp_path, monkeypatch, capsys,
                                             edit, key):
    path = str(tmp_path / "bad.bin")
    write_checkpoint(path, mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}), build_grid(8, 8), 0.0))
    _edit_header(path, edit)
    with pytest.raises(ConfigurationError) as exc:
        read_checkpoint(path)
    assert path in str(exc.value) and f"header key {key}" in str(exc.value)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 8, "n_z": 8},
        initial_data={"kind": "file", "path": path}))
    assert run_scenario(scenario) == 2
    assert f"header key {key}" in capsys.readouterr().err


# --- scenario runs ------------------------------------------------------------

def test_run_scenario_success(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    code = run_scenario(_write(tmp_path, _scenario(
        output={"directory": "runA", "write_checkpoints": True})))
    assert code == 0
    out = capsys.readouterr().out
    assert "young_forcing: PASS" in out
    assert "swirl_budget: REPORT-ONLY" in out
    outdir = tmp_path / "runA"
    assert (outdir / "diagnostics.csv").is_file()
    assert (outdir / "manifest.json").is_file()
    assert (outdir / "report.json").is_file()
    assert (outdir / "report.txt").is_file()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["failed"] is False
    assert len(manifest["checkpoint_hashes"]) == len(
        list(outdir.glob("checkpoint_*.bin"))
    )
    header = (outdir / "diagnostics.csv").read_text().splitlines()[0]
    assert header.startswith("time,swirl_q_norm,d_t,serrin_running")


def test_diagnostics_header(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(_write(tmp_path, _scenario())) == 0
    header = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ",".join([
        "time", "swirl_q_norm", "d_t", "serrin_running", "gronwall_envelope",
        "forcing_q_norm", "weighted_vort_energy", "quartic_swirl_r2",
        "quartic_swirl_r4", "dissipation_swirl_grad", "dissipation_swirl_axis",
        "dissipation_vort", "dissipation_quartic", "grad_u_l2", "vort_l2",
        "transport_cancellation", "f_indicator", "truncated", "swirl_budget",
        "young_forcing", "holder_p", "young_eps1", "holder_s_half",
        "holder_inner", "young_eps2", "quartic_budget",
        "quartic_identity_residual", "vorticity_budget_eps_0.4",
        "vorticity_budget_eps_0.2", "vorticity_budget_eps_0.1",
        "vorticity_budget_eps_0.04", "vorticity_budget_eps_0",
    ])


def test_run_scenario_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    for name in ("r1", "r2"):
        assert run_scenario(_write(
            tmp_path, _scenario(output={"directory": name}), f"{name}.json"
        )) == 0
    b1 = (tmp_path / "r1" / "diagnostics.csv").read_bytes()
    b2 = (tmp_path / "r2" / "diagnostics.csv").read_bytes()
    assert b1 == b2


def test_run_scenario_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(str(tmp_path / "missing.json")) == 3
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ not json")
    assert run_scenario(str(bad_json)) == 2
    inadmissible = _write(tmp_path, _scenario(
        exponents={"a": 3, "b": 2, "gamma": 0}), "inadm.json")
    assert run_scenario(inadmissible) == 2
    err = capsys.readouterr().err
    assert "$.exponents" in err


@pytest.mark.parametrize("section,key", [
    ("grid", "n_rho"), ("grid", "n_z"), ("solver", "checkpoint_stride"),
    ("monitor", "q"),
])
def test_run_scenario_rejects_non_integer_counts(tmp_path, monkeypatch, capsys,
                                                 section, key):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario()
    doc[section] = {**doc.get(section, {}), key: 16.7}
    assert run_scenario(_write(tmp_path, doc)) == 2
    assert f"$.{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("cfl_safety", 0), ("cfl_safety", -1), ("checkpoint_stride", 0), ("dt", -1),
])
def test_run_scenario_rejects_bad_solver_numbers(tmp_path, monkeypatch, capsys,
                                                 key, value):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(solver={"nu": 0.1, "t_end": 0.01, "dt": None, key: value})
    assert run_scenario(_write(tmp_path, doc)) == 2
    assert f"$.solver.{key}" in capsys.readouterr().err


def test_run_scenario_ignores_projection_knobs(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(solver={"nu": 0.1, "t_end": 0.01, "dt": 1e-3,
                            "projection_max_iter": 1},
                    initial_data={"kind": "taylor_vortex_swirl"})
    assert run_scenario(_write(tmp_path, doc)) == 0


def test_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    for i in range(2):
        _write(sweep_dir, _scenario(output={"directory": f"s{i}"}), f"s{i}.json")
    assert sweep_cmd(str(sweep_dir)) == 0
    out = capsys.readouterr().out
    assert "s0.json: exit 0" in out and "s1.json: exit 0" in out
    empty = tmp_path / "empty"
    empty.mkdir()
    assert sweep_cmd(str(empty)) == 2


def test_sweep_reports_every_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    _write(sweep_dir, _scenario(output={"directory": "good"}), "good.json")
    _write(sweep_dir, _scenario(
        solver={"nu": 0.1, "t_end": 0.01, "checkpoint_stride": 0},
        output={"directory": "bad"}), "bad.json")
    assert sweep_cmd(str(sweep_dir)) == 2
    captured = capsys.readouterr()
    assert "good.json: exit 0" in captured.out
    assert "bad.json: exit 2" in captured.out
    assert "$.solver.checkpoint_stride" in captured.err
    assert (tmp_path / "good" / "diagnostics.csv").is_file()


# --- exponent and convergence subcommands --------------------------------------

def test_check_exponents_admissible(capsys):
    assert check_exponents_cmd("6", "4", "0") == 0
    out = capsys.readouterr().out
    assert "verdict: admissible" in out
    block = json.loads(out.strip().splitlines()[-1])
    assert block["admissible"] is True
    assert block["exponents"]["alpha"] == pytest.approx(6.0)


def test_check_exponents_sup_branch(capsys):
    assert check_exponents_cmd("6", "inf", "0") == 0
    out = capsys.readouterr().out
    block = json.loads(out.strip().splitlines()[-1])
    assert block["exponents"]["delta"] == pytest.approx(0.5)


def test_check_exponents_inadmissible(capsys):
    assert check_exponents_cmd("1", "4", "0") == 0
    out = capsys.readouterr().out
    assert "verdict: inadmissible" in out
    assert check_exponents_cmd("6", "nope", "0") == 2


def test_check_exponents_unsupported_infinite_a(capsys):
    # admissible for the criterion, rejected by the d(t) construction
    assert check_exponents_cmd("inf", "4", "0") == 0
    out = capsys.readouterr().out
    assert "verdict: inadmissible" in out
    block = json.loads(out.strip().splitlines()[-1])
    assert block["admissible"] is False
    assert block["violations"]


def test_mms_cmd_validation(capsys):
    assert mms_cmd("bogus", [8, 16, 32]) == 2
    assert mms_cmd("rigid_rotation", [8, 16]) == 2


@pytest.mark.parametrize("kind,nu", [
    ("decaying_swirl", "0"), ("decaying_swirl", "inf"),
    ("rigid_rotation", "0"), ("rigid_rotation", "-1"), ("rigid_rotation", "nan"),
    ("taylor_vortex_swirl", "-1"), ("lopsided_curl", "0"),
])
def test_mms_nu_must_be_positive_and_finite(capsys, kind, nu):
    assert main(["mms", kind, "8", "16", "32", f"--nu={nu}"]) == 2
    captured = capsys.readouterr()
    assert "--nu" in captured.err and captured.out == ""


def test_mms_cmd_negative_control(tmp_path, capsys):
    code = mms_cmd("lopsided_curl", [8, 16, 32], outdir=str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" in out  # first-order stencil misses the 1.9 bar
    assert (tmp_path / "convergence_lopsided_curl.csv").is_file()


# --- argparse entry -------------------------------------------------------------

def test_main_dispatch(capsys):
    assert main(["check-exponents", "6", "4", "0"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["unknown-command"])


def test_import_freezes_the_import_heap_once():
    # importing the command line moves what its imports left to the
    # permanent generation, which no collection walks; main() freezes
    # nothing more, so an in-process caller's garbage stays collectable
    src = os.path.dirname(os.path.dirname(mms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import gc, axiswirl.cli as cli; n = gc.get_freeze_count(); "
            "assert n > 0, n; "
            "codes = [cli.main(['check-exponents', '6', '4', '0']) "
            "for _ in range(2)]; "
            "assert codes == [0, 0], codes; "
            "assert gc.get_freeze_count() == n, (n, gc.get_freeze_count())")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# --- exit-code contract -----------------------------------------------------------

@pytest.mark.parametrize("over,path", [
    ({"monitor": {"epsilon_list": ["a"]}}, "$.monitor.epsilon_list[0]"),
    ({"monitor": {"epsilon_list": [0.1, 0.2, 0.0]}}, "$.monitor.epsilon_list"),
    ({"monitor": {"epsilon_list": [0.4, 0.1]}}, "$.monitor.epsilon_list"),
    ({"monitor": {"epsilon_list": [1e400, 0.0]}}, "$.monitor.epsilon_list"),
    ({"monitor": {"c_sob": -1}}, "$.monitor.c_sob"),
    ({"monitor": {"c_grow": 0}}, "$.monitor.c_grow"),
    ({"monitor": {"c_grow": math.inf}}, "$.monitor.c_grow"),
    ({"grid": {"n_rho": 10**400}}, "$.grid.n_rho"),
    ({"exponents": {"a": 6, "b": 10**400, "gamma": 0}}, "$.exponents.b"),
    ({"initial_data": {"kind": "decaying_swirl", "params": {"amplitude": "x"}}},
     "$.initial_data.params.amplitude"),
    ({"initial_data": {"kind": "decaying_swirl", "params": {"nu": math.nan}}},
     "$.initial_data.params.nu"),
    ({"initial_data": {"kind": "file", "path": "a\0b"}}, "$.initial_data.path"),
    ({"output": {"directory": "a\0b"}}, "$.output.directory"),
    ({"solver": {"nu": math.inf}}, "$.solver.nu"),
    ({"solver": {"dt": math.inf}}, "$.solver.dt"),
    ({"grid": {"rho_max": math.inf}}, "$.grid.rho_max"),
    ({"exponents": {"a": 6, "b": math.inf, "gamma": 0}}, "$.exponents.b"),
    ({"exponents": {"a": 6, "b": 4, "gamma": -math.inf}}, "$.exponents.gamma"),
    ({"monitor": {"c3": math.inf}}, "$.monitor.c3"),
    ({"output": {"directory": "out", "write_checkpoints": "false"}},
     "$.output.write_checkpoints"),
], ids=["eps_not_number", "eps_increasing", "eps_no_limit", "eps_infinite",
        "c_sob_negative", "c_grow_zero", "c_grow_infinite", "n_rho_overflow",
        "b_overflow", "param_not_number", "param_nan", "path_nul", "directory_nul",
        "nu_infinite", "dt_infinite", "rho_max_infinite", "b_infinite_number",
        "gamma_infinite", "c3_infinite", "write_checkpoints_string"])
def test_run_scenario_rejects_before_solving(tmp_path, monkeypatch, capsys,
                                             over, path):
    with pytest.raises(SchemaError) as exc:
        validate_scenario(_scenario(**over))
    assert exc.value.path.startswith(path)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(_write(tmp_path, _scenario(**over))) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any output


# Valid to the schema, so validate_scenario passes them: the step count
# depends on the initial state, and the monitor's constants on the
# calibrated c_sob.  Rejected once the solver or the monitor meets them.
@pytest.mark.parametrize("solver,monitor,path", [
    ({"nu": 1e300}, {}, "$.solver"),
    ({"cfl_safety": 1e-320}, {}, "$.solver"),
    ({"dt": 1e-320}, {}, "$.solver"),
    ({"nu": 1e-320}, {}, "$.solver.nu"),
    ({"nu": 1e-320, "dt": 1e-3}, {"c_grow": 1.0}, "$.solver.nu"),
], ids=["nu_huge", "cfl_safety_tiny", "dt_tiny", "nu_tiny",
        "nu_tiny_given_c_grow"])
def test_run_scenario_rejects_unrunnable_solver_settings(
        tmp_path, monkeypatch, capsys, solver, monitor, path):
    doc = _scenario(grid={"n_rho": 8, "n_z": 8},
                    solver={"t_end": 0.01, **solver}, monitor=monitor)
    validate_scenario(doc)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(_write(tmp_path, doc)) == 2
    assert f"error: {path}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any output


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b'{"schema_version": ' + b"1" * 5000 + b"}",
], ids=["not_utf8", "integer_too_long"])
def test_run_scenario_rejects_unreadable_json(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert run_scenario(str(path)) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_sweep_reports_every_scenario_on_monitor_errors(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    _write(sweep_dir, _scenario(monitor={"c_sob": -1},
                                output={"directory": "bad"}), "a_bad.json")
    _write(sweep_dir, _scenario(output={"directory": "good"}), "b_good.json")
    assert sweep_cmd(str(sweep_dir)) == 2
    captured = capsys.readouterr()
    assert "a_bad.json: exit 2" in captured.out
    assert "b_good.json: exit 0" in captured.out
    assert "$.monitor.c_sob" in captured.err
    assert (tmp_path / "good" / "diagnostics.csv").is_file()


def test_file_initial_state_must_match_the_scenario_grid(tmp_path, monkeypatch,
                                                          capsys):
    path = str(tmp_path / "small.bin")
    small = build_grid(8, 8)
    write_checkpoint(path, mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}), small, 0.0))
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 16, "n_z": 8},
        initial_data={"kind": "file", "path": path}))
    assert run_scenario(scenario) == 2
    err = capsys.readouterr().err
    assert "$.initial_data.path" in err and path in err
    assert repr(small) in err and repr(build_grid(16, 8)) in err
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


# --- fuzzing: only the documented errors escape ------------------------------------

_SECTIONS = {
    "grid": ("n_rho", "n_z", "rho_max", "z_min", "z_max"),
    "solver": ("nu", "t_start", "t_end", "dt", "cfl_safety",
               "checkpoint_stride", "projection_tol", "projection_max_iter"),
    "exponents": ("a", "b", "gamma", "delta"),
    "monitor": ("q", "epsilon_list", "c_grow", "c_sob", "c3"),
    "initial_data": ("kind", "params", "path"),
    "forcing": ("kind",),
    "output": ("directory", "write_checkpoints"),
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# values a scenario field plausibly holds, besides arbitrary JSON
_PLAUSIBLE = (
    st.integers(-3, 40) | st.floats(-2.0, 8.0) | st.just(math.inf)
    | st.sampled_from(["inf", "x", "file", "zero", "decaying_swirl",
                       "taylor_vortex_swirl", "rigid_rotation", "manufactured"])
    | st.lists(st.floats(-0.5, 1.5) | st.just(0.0) | _JSON, max_size=4)
    | st.dictionaries(st.sampled_from(["nu", "amplitude", "rho_max"]),
                      st.floats() | _JSON, max_size=2)
)


@pytest.mark.parametrize("section,key", [
    (name, key) for name, keys in _SECTIONS.items() for key in (None, *keys)
])
@given(value=_PLAUSIBLE | _JSON)
@settings(max_examples=40)
def test_validate_scenario_fuzz(section, key, value):
    # one field (key None: the whole section) of a valid scenario replaced
    doc = _scenario()
    doc[section] = value if key is None else {**doc.get(section, {}), key: value}
    try:
        validate_scenario(doc)
    except ConfigurationError:  # SchemaError included
        pass


def _checkpoint_bytes():
    state = mms.sample_state(mms.make_solution("taylor_vortex_swirl", {}),
                             build_grid(4, 4), 0.25)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.bin")
        write_checkpoint(path, state)
        with open(path, "rb") as fh:
            return fh.read()


_CHECKPOINT = _checkpoint_bytes()
_HEADER_LEN = _CHECKPOINT.index(b"\n") + 1


@given(
    edits=st.lists(st.tuples(
        st.integers(0, _HEADER_LEN - 1) | st.integers(0, len(_CHECKPOINT) - 1),
        st.integers(0, 255) | st.sampled_from(list(b'0129e.-,:"[]{}\n ')),
    ), max_size=4),
    keep=st.integers(0, len(_CHECKPOINT)),
)
@settings(max_examples=400)
def test_read_checkpoint_fuzz(edits, keep):
    data = bytearray(_CHECKPOINT)
    for pos, byte in edits:
        data[pos] = byte
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.bin")
        with open(path, "wb") as fh:
            fh.write(bytes(data[:keep]))
        try:
            read_checkpoint(path)
        except (ConfigurationError, OSError):
            pass


# --- exit-code contract: extents, oversized headers, overflow ------------------------

@pytest.mark.parametrize("kind,params,path", [
    ("decaying_swirl", {"rho_max": 0}, "$.initial_data.params.rho_max"),
    ("decaying_swirl", {"rho_max": -1.5}, "$.initial_data.params.rho_max"),
    ("taylor_vortex_swirl", {"z_max": 0}, "$.initial_data.params.z_max"),
    ("taylor_vortex_swirl", {"z_min": 2.0}, "$.initial_data.params.z_max"),
])
def test_manufactured_extents_are_validated(tmp_path, monkeypatch, capsys,
                                            kind, params, path):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(initial_data={"kind": kind, "params": params})
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("grid,path", [
    ({"rho_max": 0}, "$.grid.rho_max"),
    ({"z_min": 1.0, "z_max": 1.0}, "$.grid.z_max"),
])
def test_grid_extents_are_validated(grid, path):
    with pytest.raises(SchemaError) as exc:
        validate_scenario(_scenario(grid={"n_rho": 16, "n_z": 8, **grid}))
    assert exc.value.path == path


def test_checkpoint_header_larger_than_its_file(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "huge.bin")
    header = {"format": "axiswirl-checkpoint", "version": 1,
              "grid": {"n_rho": 10**6, "n_z": 10**6, "rho_max": 2.0,
                       "z_min": 0.0, "z_max": 1.0},
              "time": 0.0, "fields": ["u_rho"]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + bytes(64))
    with pytest.raises(ConfigurationError) as exc:
        read_checkpoint(path)
    assert path in str(exc.value) and "header key grid" in str(exc.value)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(initial_data={"kind": "file", "path": path})
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert "header key grid" in capsys.readouterr().err


def test_overflowing_state_is_blow_up(tmp_path, monkeypatch, capsys):
    # finite samples whose squares overflow: a truncated record, exit 0
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 0.01},
                    initial_data={"kind": "taylor_vortex_swirl",
                                  "params": {"amplitude": 1e300}})
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["truncated"] is True
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert rows[-1].split(",")[header.index("truncated")] == "1"


def test_overflowing_swirl_powers_are_blow_up(tmp_path, monkeypatch, capsys):
    # u_phi ~ 1e30: finite fields and squares, but integral |u_phi|^{3q}
    # overflows, so the first checkpoint is blow-up data (a truncated
    # record, exit 0) instead of feeding inf/nan into the Holder/Young
    # margins
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 0.01},
                    initial_data={"kind": "taylor_vortex_swirl",
                                  "params": {"swirl": 1e30}})
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["blowup_indicator"]["truncated"] is True
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[rows[0].split(",").index(
        "truncated")] == "1"


# A short run (16 x 8, ten steps) with one field replaced, as in
# test_validate_scenario_fuzz, optionally started from a checkpoint with
# the byte edits of test_read_checkpoint_fuzz.  The replaced fields leave
# the step count, the grid size and the output location alone, so each
# example is a bounded run inside the test's directory.
_RUN_FIELDS = [
    ("grid", "rho_max"), ("grid", "z_min"), ("grid", "z_max"),
    ("solver", "nu"), ("solver", "cfl_safety"), ("solver", "checkpoint_stride"),
    ("output", "write_checkpoints"),
] + [(name, key) for name in ("exponents", "monitor", "initial_data", "forcing")
     for key in (None, *_SECTIONS[name])]
_CHECKPOINT_EDIT = st.tuples(
    st.lists(st.tuples(
        st.integers(0, _HEADER_LEN - 1) | st.integers(0, len(_CHECKPOINT) - 1),
        st.integers(0, 255) | st.sampled_from(list(b'0129e.-,:"[]{}\n ')),
    ), max_size=4),
    st.integers(0, len(_CHECKPOINT)) | st.just(len(_CHECKPOINT)),
)


@given(field=st.sampled_from(_RUN_FIELDS), value=_PLAUSIBLE | _JSON,
       checkpoint=st.none() | _CHECKPOINT_EDIT)
@settings(max_examples=100)
def test_main_exit_code_fuzz(field, value, checkpoint):
    section, key = field
    doc = _scenario()
    with tempfile.TemporaryDirectory() as tmp:
        if checkpoint is not None:
            edits, keep = checkpoint
            data = bytearray(_CHECKPOINT)
            for pos, byte in edits:
                data[pos] = byte
            path = os.path.join(tmp, "ck.bin")
            with open(path, "wb") as fh:
                fh.write(bytes(data[:keep]))
            doc.update(grid={"n_rho": 4, "n_z": 4},
                       initial_data={"kind": "file", "path": path})
        doc[section] = value if key is None else {**doc.get(section, {}),
                                                  key: value}
        scenario = os.path.join(tmp, "scenario.json")
        with open(scenario, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with mock.patch.dict(os.environ, {OUTPUT_ROOT_ENV: tmp}), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = main(["run", scenario])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_growth_integral_overflow_is_not_an_error(tmp_path, monkeypatch, capsys):
    # finite fields whose Serrin integral makes d(t) ~ 1e51: the Gronwall
    # envelope's exponent overflows to an infinite envelope, not an error
    # (the run exits 4: the quartic identity's band does not grow with
    # the velocity scale)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 1e-13},
                    initial_data={"kind": "taylor_vortex_swirl",
                                  "params": {"amplitude": 1e12}})
    with np.errstate(all="ignore"):
        assert main(["run", _write(tmp_path, doc)]) in (0, 4)
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    header = rows[0].split(",")
    envelope = [float(r.split(",")[header.index("gronwall_envelope")])
                for r in rows[1:]]
    assert len(envelope) > 2 and envelope[-1] == math.inf


@pytest.mark.parametrize("exponents,initial_data", [
    # theta = b/a = 25: S^theta overflows a float on a finite state
    ({"a": 4, "b": 100, "gamma": 0},
     {"kind": "taylor_vortex_swirl", "params": {"amplitude": 1000}}),
    # amplitude^2 overflows in the pressure's coefficient: an infinite
    # initial pressure
    ({"a": 6, "b": 4, "gamma": 0},
     {"kind": "decaying_swirl", "params": {"amplitude": 1e300}}),
], ids=["serrin_power", "swirl_pressure"])
def test_overflowing_powers_are_blow_up(tmp_path, monkeypatch, capsys,
                                        exponents, initial_data):
    # a truncated report and exit 0, not an OverflowError
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 1e-6},
                    exponents=exponents, initial_data=initial_data)
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["truncated"] is True


@pytest.mark.parametrize("monitor", [{}, {"c_grow": 1.0}],
                         ids=["default_c_grow", "given_c_grow"])
def test_absorption_constant_overflow_names_the_exponents(
        tmp_path, monkeypatch, capsys, monitor):
    # a = b = 1000 is admissible, but eps1^(1/(1-p)) = 0.05^-399 overflows
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8},
                    exponents={"a": 1000, "b": 1000, "gamma": 0},
                    monitor=monitor)
    validate_scenario(doc)
    assert main(["run", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.exponents:") and "Traceback" not in err
    assert all(f"{name} = " in err for name in ("p", "s", "nu"))
    assert not (tmp_path / "out").exists()


def test_cell_counts_beyond_the_bound_are_rejected(tmp_path, monkeypatch,
                                                   capsys):
    doc = _scenario(grid={"n_rho": 10**6, "n_z": 10**6})
    with pytest.raises(SchemaError) as exc:
        validate_scenario(doc)
    assert exc.value.path == "$.grid" and str(MAX_CELLS) in str(exc.value)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert "error: $.grid:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # mms builds every level's grid before it samples any
    assert main(["mms", "rigid_rotation", "8", "16", str(10**6)]) == 2
    assert str(MAX_CELLS) in capsys.readouterr().err


@pytest.mark.parametrize("levels", [["8", "8", "8"], ["8", "16", "16"],
                                    ["16", "8", "32"]])
def test_mms_levels_must_strictly_increase(capsys, levels):
    assert main(["mms", "decaying_swirl", *levels]) == 2
    captured = capsys.readouterr()
    assert "strictly increase" in captured.err and captured.out == ""
