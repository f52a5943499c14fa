"""Command-line surface: schema validation, artifacts, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
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
    state_hash,
    sweep_cmd,
    validate_scenario,
    write_checkpoint,
)
from axiswirl.errors import (
    ConfigurationError,
    ContractViolation,
    InadmissibleExponents,
)
from axiswirl.exponents import check_admissible, derive_exponents
from axiswirl.fields import zero_state
from axiswirl.grid import MAX_CELLS, build_grid
from axiswirl.monitor import monitor_settings
from axiswirl.solver import SimConfig
from axiswirl import cli, mms


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


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


def _strict(text):
    """JSON text parsed strictly: a NaN, Infinity or -Infinity token
    raises ValueError, as JavaScript's JSON.parse refuses them."""
    return json.loads(text, parse_constant=_refuse)


def _artifacts(outdir):
    """(report, manifest) of a run, each parsed by _strict."""
    return tuple(_strict((outdir / name).read_text())
                 for name in ("report.json", "manifest.json"))


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


@pytest.mark.parametrize("spelling", ["inf", "Inf", "Infinity", "INF",
                                      "+inf", "infinity"])
def test_schema_and_check_exponents_spell_infinite_b_alike(capsys, spelling):
    # a string is b = inf exactly when float() reads it as inf
    cfg = validate_scenario(_scenario(
        exponents={"a": 6, "b": spelling, "gamma": 0.1}))
    assert cfg["exponents"]["b"] == math.inf
    assert check_exponents_cmd("6", spelling, "0.1") == 0
    block = _strict(capsys.readouterr().out.strip().splitlines()[-1])
    assert block["b"] == "inf" and block["admissible"] is True


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
    (_scenario(output={"directory": "/abs_out"}), "$.output.directory"),
    (_scenario(output={"directory": "a/../b"}), "$.output.directory"),
    # float() reads these, but not as inf
    (_scenario(exponents={"a": 6, "b": "-inf", "gamma": 0}), "$.exponents.b"),
    (_scenario(exponents={"a": 6, "b": "nan", "gamma": 0}), "$.exponents.b"),
    (_scenario(exponents={"a": 6, "b": "4", "gamma": 0}), "$.exponents.b"),
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
        written = write_checkpoint(path, state)
        back = read_checkpoint(path)
        raw = pathlib.Path(path).read_bytes()
    assert back.grid == state.grid
    assert back.time == state.time
    for name in ("u_rho", "u_phi", "u_z", "pressure"):
        assert getattr(back, name).tobytes() == getattr(state, name).tobytes()
    assert state_hash(back) == state_hash(state)
    # the hash is over the payload, as `tail -n +2 ck.bin | sha256sum`,
    # and the writer returns it
    assert written == state_hash(state) == hashlib.sha256(
        raw[raw.index(b"\n") + 1:]).hexdigest()


def test_manifest_checkpoint_hashes_are_over_the_fields(tmp_path, monkeypatch):
    # SHA-256 of the file's payload: u_rho, u_phi, u_z and p as
    # little-endian float64, each rho-fastest
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(_write(tmp_path, _scenario(
        grid={"n_rho": 12, "n_z": 6},
        output={"directory": "out", "write_checkpoints": True}))) == 0
    outdir = tmp_path / "out"
    manifest = _strict((outdir / "manifest.json").read_text())
    paths = sorted(outdir.glob("checkpoint_*.bin"))
    assert len(paths) == len(manifest["checkpoint_hashes"]) > 1
    for path, recorded in zip(paths, manifest["checkpoint_hashes"]):
        raw = path.read_bytes()
        payload = raw[raw.index(b"\n") + 1:]
        assert recorded == hashlib.sha256(payload).hexdigest()
        assert recorded == state_hash(read_checkpoint(str(path)))


def test_checkpoint_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(ConfigurationError):
        read_checkpoint(str(p))


def test_checkpoint_rejects_non_finite_samples(tmp_path, monkeypatch, capsys):
    g = build_grid(8, 8)
    state = mms.sample_state(mms.make_solution("taylor_vortex_swirl", {}, g), 0.0)
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
        header = _strict(fh.readline())
        payload = fh.read()
    edit(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("edit,key", [
    (lambda h: h.update(fields=["u_rho", "vorticity"]), "fields"),
    # the later block of a field named twice won
    (lambda h: h.update(fields=["u_rho", "u_phi", "u_rho", "pressure"]),
     "fields"),
    (lambda h: h["grid"].pop("n_z"), "grid.n_z"),
    (lambda h: h.update(time="abc"), "time"),
    (lambda h: h.update(version=2), "version"),
    (lambda h: h["grid"].update(n_rho=1), "grid"),  # build_grid refuses it
    # 8^2 samples under a 4^2 header were read as each field's first
    # quarter
    (lambda h: h["grid"].update(n_rho=4, n_z=4), "grid"),
    # samples in another layout would load as wrong data
    (lambda h: h.update(dtype="<f4"), "dtype"),
    (lambda h: h.update(order="z-fastest"), "order"),
    # no writer leaves them out: a header without them is not the writer's
    (lambda h: h.pop("dtype"), "dtype"),
    (lambda h: h.pop("order"), "order"),
], ids=["unknown_field", "field_named_twice", "missing_n_z",
        "non_numeric_time", "version", "grid_refused",
        "payload_larger_than_declared", "dtype", "order", "dtype_missing",
        "order_missing"])
def test_checkpoint_rejects_malformed_header(tmp_path, monkeypatch, capsys,
                                             edit, key):
    path = str(tmp_path / "bad.bin")
    write_checkpoint(path, mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}, build_grid(8, 8)), 0.0))
    _edit_header(path, edit)
    with pytest.raises(ConfigurationError) as exc:
        read_checkpoint(path)
    assert path in str(exc.value) and f"header key {key}" in str(exc.value)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 8, "n_z": 8},
        initial_data={"kind": "file", "path": path}))
    assert run_scenario(scenario) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.initial_data: ") and path in err
    assert f"header key {key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields", [
    ["u_rho"],
    ["u_phi", "u_rho", "u_z", "pressure"],
    ["u_rho", "u_phi", "u_z", "u_z"],
], ids=["subset", "permutation", "field_repeated"])
def test_checkpoint_header_lists_the_four_fields_in_order(
        tmp_path, monkeypatch, capsys, fields):
    # a subset loaded with zeros for the fields it left out, and a
    # permutation loaded each block as the field it named; no writer
    # writes either
    path = str(tmp_path / "bad.bin")
    write_checkpoint(path, mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}, build_grid(8, 8)), 0.0))
    _edit_header(path, lambda h: h.update(fields=fields))
    # the payload holds as many fields as the header names
    os.truncate(path, os.path.getsize(path) - 8 * 64 * (4 - len(fields)))
    with pytest.raises(ConfigurationError) as exc:
        read_checkpoint(path)
    assert path in str(exc.value) and "header key fields" in str(exc.value)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 8, "n_z": 8},
        initial_data={"kind": "file", "path": path}))
    assert main(["run", scenario]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.initial_data: ") and path in err
    assert not (tmp_path / "out").exists()


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
    manifest = _strict((outdir / "manifest.json").read_text())
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


def test_run_scenario_rejects_projection_knobs(tmp_path, monkeypatch, capsys):
    # the pressure solve is direct: a run ignored these keys, and now a
    # file that names one is refused at that key, before any output
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    for key, value in (("projection_max_iter", 1), ("projection_tol", 1e-8)):
        doc = _scenario(solver={"nu": 0.1, "t_end": 0.01, "dt": 1e-3,
                                key: value},
                        initial_data={"kind": "taylor_vortex_swirl"})
        assert run_scenario(_write(tmp_path, doc)) == 2
        assert f"$.solver.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_a_manifest_with_infinite_b_re_runs(tmp_path, monkeypatch):
    # the manifest wrote b = inf as an Infinity token, which the schema
    # refused, so its scenario block could not be run again
    doc = _scenario(exponents={"a": 6, "b": "inf", "gamma": 0.1},
                    output={"directory": "out", "write_checkpoints": True})
    runs = []
    for name in ("first", "again"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
        assert run_scenario(_write(root, doc)) == 0
        manifest = _strict((root / "out" / "manifest.json").read_text())
        runs.append((manifest, (root / "out" / "diagnostics.csv").read_bytes()))
        doc = manifest["scenario"]
    (first, csv), (again, csv_again) = runs
    assert first["scenario"]["exponents"]["b"] == "inf"
    assert first["resolved"]["exponents"]["b"] == "inf"
    assert again["scenario"] == first["scenario"]
    assert again["checkpoint_hashes"] == first["checkpoint_hashes"]
    assert csv_again == csv


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


def test_sweep_calls_run_through_the_cli_binding(tmp_path, monkeypatch,
                                                 capsys):
    # perfbench/child.py timestamps the start of time integration by
    # replacing axiswirl.cli.run: each scenario must call run once,
    # looked up there when it is called
    calls = []
    solver_run = cli.run

    def counted(*args, **kwargs):
        calls.append(args)
        return solver_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counted)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    for i in range(2):
        _write(sweep_dir, _scenario(output={"directory": f"s{i}"}), f"s{i}.json")
    assert main(["sweep", str(sweep_dir)]) == 0
    assert len(calls) == 2


@given(n=st.integers(1, 12), k=st.integers(1, 15))
@example(n=5, k=10**9)  # perfbench's NEVER: a stride longer than any run
@settings(max_examples=25, deadline=None)
def test_run_checkpoints_the_initial_every_stride_th_and_the_last_step(n, k):
    # n steps of a given dt at checkpoint_stride k write the initial
    # state, every k-th step and the last step, each once, in time order
    dt = 2.0**-10
    doc = _scenario(grid={"n_rho": 8, "n_z": 8},
                    solver={"t_end": n * dt, "dt": dt, "checkpoint_stride": k},
                    output={"directory": "out", "write_checkpoints": True})
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {OUTPUT_ROOT_ENV: tmp}):
        scenario = _write(pathlib.Path(tmp), doc)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", scenario]) == 0
        out = pathlib.Path(tmp) / "out"
        times = [read_checkpoint(str(p)).time
                 for p in sorted(out.glob("checkpoint_*.bin"))]
        manifest = _strict((out / "manifest.json").read_text())
    want = sorted({*range(0, n + 1, k), n})
    assert [round(t / dt) for t in times] == want
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:])), times
    assert manifest["resolved"]["steps"] == n
    assert len(manifest["checkpoint_hashes"]) == len(want)


# --- exponent and convergence subcommands --------------------------------------

def test_check_exponents_admissible(capsys):
    assert check_exponents_cmd("6", "4", "0") == 0
    out = capsys.readouterr().out
    assert "verdict: admissible" in out
    block = _strict(out.strip().splitlines()[-1])
    assert block["admissible"] is True
    assert block["exponents"]["alpha"] == pytest.approx(6.0)


def test_check_exponents_sup_branch(capsys):
    assert check_exponents_cmd("6", "inf", "0") == 0
    out = capsys.readouterr().out
    block = _strict(out.strip().splitlines()[-1])
    assert block["exponents"]["delta"] == pytest.approx(0.5)
    # b was an Infinity token
    assert block["b"] == block["exponents"]["b"] == "inf"


def test_check_exponents_inadmissible(capsys):
    assert check_exponents_cmd("1", "4", "0") == 0
    out = capsys.readouterr().out
    assert "verdict: inadmissible" in out
    assert check_exponents_cmd("6", "nope", "0") == 2
    # a NaN a was a NaN token
    assert check_exponents_cmd("nan", "4", "0") == 0
    block = _strict(capsys.readouterr().out.strip().splitlines()[-1])
    assert block["a"] is None and block["admissible"] is False


def test_check_exponents_negative_infinite_b(capsys):
    # b = -inf took the b = inf branch and was admissible
    assert check_admissible(6, -math.inf, 0) == [
        "b must lie in (1, inf], got -inf"]
    with pytest.raises(InadmissibleExponents):
        derive_exponents(6, -math.inf, 0)
    assert check_exponents_cmd("6", "-inf", "0") == 0
    out = capsys.readouterr().out
    assert "verdict: inadmissible" in out
    assert _strict(out.strip().splitlines()[-1])["admissible"] is False


def test_check_exponents_negative_infinite_gamma(capsys):
    # gamma = -inf met 3/a + 2/b + gamma <= 1 and was admissible
    assert check_admissible(6, 4, -math.inf) == [
        "gamma must be finite, got -inf"]
    with pytest.raises(InadmissibleExponents):
        derive_exponents(6, 4, -math.inf)
    assert main(["check-exponents", "--", "6", "4", "-inf"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verdict: inadmissible\n")
    assert _strict(out.strip().splitlines()[-1])["admissible"] is False


def test_check_exponents_unsupported_infinite_a(capsys):
    # admissible for the criterion, rejected by the d(t) construction
    assert check_exponents_cmd("inf", "4", "0") == 0
    out = capsys.readouterr().out
    assert "verdict: inadmissible" in out
    block = _strict(out.strip().splitlines()[-1])
    assert block["admissible"] is False and block["a"] == "inf"
    assert block["violations"]


@pytest.mark.parametrize("b", ["6e16", "1e300"])
def test_check_exponents_where_s_rounds_to_3(capsys, b):
    # admissible on paper; theta = 2/(s - 3) exited 1 with a
    # ZeroDivisionError
    assert main(["check-exponents", "6", b, "0"]) == 0
    captured = capsys.readouterr()
    assert "verdict: inadmissible" in captured.out and captured.err == ""
    block = _strict(captured.out.strip().splitlines()[-1])
    assert block["admissible"] is False


def test_mms_cmd_validation(capsys):
    assert mms_cmd("bogus", [8, 16, 32]) == 2
    assert mms_cmd("rigid_rotation", [8, 16]) == 2


@pytest.mark.parametrize("kind,nu", [
    ("decaying_swirl", "0"), ("decaying_swirl", "inf"),
    ("rigid_rotation", "0"), ("rigid_rotation", "-1"), ("rigid_rotation", "nan"),
    ("taylor_vortex_swirl", "-1"), ("lopsided_curl", "0"),
    ("decaying_swirl", "1e6"),
])
def test_mms_nu_must_be_positive_and_finite(capsys, kind, nu):
    assert main(["mms", kind, "8", "16", "32", f"--nu={nu}"]) == 2
    captured = capsys.readouterr()
    assert "--nu" in captured.err and captured.out == ""


@pytest.mark.parametrize("levels", [[8, 12, 16], [2, 3, 4], [8, 9, 10]])
def test_mms_order_over_a_coarser_zero_error_is_minus_inf(capsys, levels):
    # rigid rotation's operator errors are 0 or rounding: a level whose
    # error is 0 before one with a rounding error has no log2 ratio
    assert mms_cmd("rigid_rotation", levels) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()  # a header, a row per level, orders
    assert lines[1].split(",")[2] == "0" and lines[2].endswith(",-inf")
    assert lines[-1].startswith("orders: [-inf, ") and lines[-1].endswith("FAIL")


def test_mms_solver_failure_names_nu(capsys):
    # the study's dt = 0.1 Delta^2 / nu: a small nu takes one step of
    # t_end, beyond the stability limit, at every level
    assert main(["mms", "taylor_vortex_swirl", "16", "32", "64",
                 "--nu", "1e-4"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --nu: solver failed: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


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


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("command", ["check-exponents", "run", "--help",
                                     "run --help", "sweep"],
                         ids=["check-exponents", "run", "help", "run_help",
                              "sweep"])
def test_a_closed_stdout_exits_3(tmp_path, command, unbuffered):
    # stdout is a pipe whose reader has gone (as under `| head -c 1`).
    # Unbuffered, a print meets it; buffered, main's flush does (--help
    # flushes its own text).  Either way the program exits 3 with one
    # error line, and a run, or each scenario of a sweep, has written its
    # artifacts first
    doc = _scenario(grid={"n_rho": 8, "n_z": 8},
                    solver={"nu": 0.1, "t_end": 2e-3, "dt": 1e-3},
                    output={"directory": "out", "write_checkpoints": True})
    if command == "sweep":
        (tmp_path / "sweep").mkdir()
        for name in ("a", "b"):
            doc["output"]["directory"] = name
            _write(tmp_path / "sweep", doc, f"{name}.json")
        argv = ["sweep", str(tmp_path / "sweep")]
    elif command == "run":
        argv = ["run", _write(tmp_path, doc)]
    elif command == "check-exponents":
        argv = ["check-exponents", "6", "4", "0"]
    else:
        argv = command.split()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONPATH": os.path.dirname(os.path.dirname(mms.__file__)),
                OUTPUT_ROOT_ENV: str(tmp_path)})
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "axiswirl.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 3, result.stderr
    assert result.stderr == "error: standard output closed\n", result.stderr
    artifacts = ["checkpoint_00000.bin", "checkpoint_00001.bin",
                 "checkpoint_00002.bin", "diagnostics.csv", "manifest.json",
                 "report.json", "report.txt"]
    for out in {"run": ["out"], "sweep": ["a", "b"]}.get(command, []):
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == artifacts


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
    ({"exponents": {"a": 6, "b": 4, "gamma": 0, "delta": 123}},
     "$.exponents.delta"),
    # beta = a (1 - delta - 3/a) would fall below a gamma = 0
    ({"exponents": {"a": 6, "b": "inf", "gamma": 0, "delta": 1.0}},
     "$.exponents.delta"),
    # admissible, but s - 3 or p - 1, which theta and alpha divide by, is
    # no positive float (three raised ZeroDivisionError)
    ({"exponents": {"a": 6, "b": 1e300, "gamma": 0}}, "$.exponents.b"),
    ({"exponents": {"a": 6, "b": "inf", "gamma": 0, "delta": 1e-300}},
     "$.exponents.delta"),
    ({"exponents": {"a": 1e308, "b": "inf", "gamma": -0.9}},
     "$.exponents.gamma"),
    ({"exponents": {"a": 1e17, "b": 1e17, "gamma": 0}}, "$.exponents"),
    # admissible, but p's denominator rounds to 0: 1 - gamma rounds to 2
    # (b = inf), or 3/a + 2/b rounds below 2 (finite b)
    ({"exponents": {"a": 6, "b": "inf", "gamma": math.nextafter(-1.0, 0.0)}},
     "$.exponents.gamma"),
    ({"exponents": {"a": 6, "b": "inf", "gamma": math.nextafter(-1.0, 0.0),
                    "delta": 1.5}}, "$.exponents.delta"),
    ({"exponents": {"a": 1.6697886776570008, "b": 9.834511350811216,
                    "gamma": -5}}, "$.exponents"),
], ids=["eps_not_number", "eps_increasing", "eps_no_limit", "eps_infinite",
        "c_sob_negative", "c_grow_zero", "c_grow_infinite", "n_rho_overflow",
        "b_overflow", "param_not_number", "param_nan", "path_nul", "directory_nul",
        "nu_infinite", "dt_infinite", "rho_max_infinite", "b_infinite_number",
        "gamma_infinite", "c3_infinite", "write_checkpoints_string",
        "delta_with_finite_b", "delta_above_slack", "s_rounds_to_3", "s_rounds_to_3_given_delta",
        "s_overflows", "p_rounds_to_1", "p_denominator_zero",
        "p_denominator_zero_given_delta", "p_denominator_zero_finite_b"])
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
# calibrated c_sob.  Rejected once the monitor, which is built before the
# solve, or the solver meets them; nu^3 overflows for the huge nu, and
# u^(q/2) underflows on every calibration probe for q = 1e20, so q, not
# nu or the exponents, is at fault unless c_sob is given.  A given c_sob
# of 1e-320 overflows eps2, the absorption term it divides.  On
# rho_max 1e-5 the calibration serves, and the viscous dt limit
# (~rho_max^2) asks for too many steps (on 1e-150 build_grid rejects
# rho d_rho^2 first).
@pytest.mark.parametrize("solver,monitor,path,grid", [
    ({"nu": 1e300}, {}, "$.solver.nu", {}),
    ({"cfl_safety": 1e-320}, {}, "$.solver", {}),
    ({"dt": 1e-320}, {}, "$.solver", {}),
    ({"nu": 1e-320}, {}, "$.solver.nu", {}),
    ({"nu": 1e-320, "dt": 1e-3}, {"c_grow": 1.0}, "$.solver.nu", {}),
    ({}, {"q": 1e20}, "$.monitor.q", {}),
    ({"nu": 1e300}, {"q": 1e20, "c_sob": 1.0}, "$.solver.nu", {}),
    ({}, {}, "$.solver", {"rho_max": 1e-5}),
    ({}, {"c_sob": 1e-320}, "$.monitor.c_sob", {}),
], ids=["nu_huge", "cfl_safety_tiny", "dt_tiny", "nu_tiny",
        "nu_tiny_given_c_grow", "q_calibrates_no_c_sob",
        "nu_huge_given_c_sob", "rho_max_tiny_takes_too_many_steps",
        "c_sob_tiny"])
def test_run_scenario_rejects_unrunnable_solver_settings(
        tmp_path, monkeypatch, capsys, solver, monitor, path, grid):
    doc = _scenario(grid={"n_rho": 8, "n_z": 8, **grid},
                    solver={"t_end": 0.01, **solver}, monitor=monitor)
    validate_scenario(doc)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(_write(tmp_path, doc)) == 2
    assert f"error: {path}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any output


@pytest.mark.parametrize("grid,monitor,exponents", [
    ({"rho_max": 1e100}, {}, {"a": 6, "b": 4, "gamma": 0}),
    ({"rho_max": 10.0}, {"q": 400}, {"a": 6, "b": 4, "gamma": 0}),
    ({"rho_max": 1e100}, {}, {"a": 40, "b": 3, "gamma": -0.5}),
], ids=["rho_max_huge", "q_400_on_rho_max_10", "rho_max_huge_beta_10"])
def test_calibration_serves_large_domains_and_powers(tmp_path, monkeypatch,
                                                     grid, monitor, exponents):
    # the probes grow with rho_max, and their powers overflowed before
    # each probe was scaled to the domain: both exited 2 at $.monitor.q.
    # On rho_max 1e100 the weights of the unforced swirl's zero integrands
    # overflow: rho^4 of int h^4 rho^4 (h = 0), and, for (40, 3, -0.5),
    # rho^beta with beta = a - s ~ 10.3 of int (u_rho^-)^a rho^beta
    # (u_rho = 0).  Each integrated to nan, which truncated the first record
    doc = _scenario(grid={"n_rho": 8, "n_z": 8, **grid},
                    solver={"t_end": 0.01}, monitor=monitor,
                    exponents=exponents)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run_scenario(_write(tmp_path, doc)) == 0
    outdir = tmp_path / "out"
    manifest = _strict((outdir / "manifest.json").read_text())
    assert 0.0 < manifest["resolved"]["c_sob"] < math.inf
    report, _ = _artifacts(outdir)
    assert report["blowup_indicator"]["last_finite_time"] == 0.01
    assert report["blowup_indicator"]["truncated"] is False
    header, *rows = (outdir / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2
    # a record's own columns run up to truncated; the budgets after them
    # are over a pair of records, so the first record has none (nan)
    own = header.split(",").index("truncated")
    first, last = (list(map(float, r.split(","))) for r in rows)
    assert all(map(math.isfinite, first[:own] + last))
    assert first[own] == last[own] == 0.0


def test_monitor_truncation_stops_neither_the_solver_nor_the_writer(
        tmp_path, monkeypatch, capsys):
    # swirl growing as e^(20 t) with q = 100: |u_phi|^(3q) overflows at
    # the third checkpoint, whose record is truncated and ends the
    # records; the solver still runs to t_end, and every checkpoint is
    # written and hashed
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(
        grid={"n_rho": 16, "n_z": 16},
        solver={"nu": 0.1, "t_end": 0.05, "dt": 0.005},
        initial_data={"kind": "taylor_vortex_swirl",
                      "params": {"swirl": 20, "swirl_z": 0, "amplitude": 0,
                                 "decay": -20}},
        forcing={"kind": "manufactured"}, monitor={"q": 100},
        output={"directory": "out", "write_checkpoints": True})
    # exit 0: the quartic identity's band is relative to the size of its
    # terms, so it grows with the flow (it exited 4 while the band was
    # relative to max(int u^4 / rho^2, 1))
    assert run_scenario(_write(tmp_path, doc)) == 0
    out = capsys.readouterr().out
    assert "quartic_identity: PASS" in out
    assert "trajectory truncated" not in out
    outdir = tmp_path / "out"
    paths = sorted(outdir.glob("checkpoint_*.bin"))
    assert len(paths) == 11
    assert read_checkpoint(str(paths[-1])).time == pytest.approx(0.05)
    manifest = _strict((outdir / "manifest.json").read_text())
    assert len(manifest["checkpoint_hashes"]) == 11
    assert manifest["failed"] is False and manifest["resolved"]["steps"] == 10
    rows = (outdir / "diagnostics.csv").read_text().splitlines()
    column = rows[0].split(",").index("truncated")
    assert [r.split(",")[column] for r in rows[1:]] == ["0", "0", "1"]
    assert _strict((outdir / "report.json").read_text())["truncated"]


def test_run_scenario_builds_the_monitor_before_solving(tmp_path, monkeypatch,
                                                        capsys):
    # nu^3 underflows, which only the monitor rejects: the scenario fails
    # without a single step
    doc = _scenario(grid={"n_rho": 16, "n_z": 16},
                    solver={"nu": 1e-300, "t_end": 2.0})
    validate_scenario(doc)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    with mock.patch("axiswirl.solver.step") as step:
        assert run_scenario(_write(tmp_path, doc)) == 2
    assert step.call_count == 0
    assert "error: $.solver.nu:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_scenario_builds_the_monitor_before_the_forcing(
        tmp_path, monkeypatch, capsys):
    # nu^3 overflows, which the monitor rejects; the forcing for that nu
    # was assembled first, and overflowed with a RuntimeWarning
    doc = _scenario(grid={"n_rho": 8, "n_z": 8},
                    solver={"nu": 1e308, "t_end": 0.01},
                    forcing={"kind": "manufactured"})
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    with mock.patch("axiswirl.mms.forcing_callable") as forcing:
        assert run_scenario(_write(tmp_path, doc)) == 2
    assert forcing.call_count == 0
    assert capsys.readouterr().err.startswith("error: $.solver.nu: ")


@pytest.mark.parametrize("doc,code", [
    (_scenario(initial_data={"kind": "rigid_rotation",
                             "params": {"omega": 1e308}}), 0),
    (_scenario(initial_data={"kind": "rigid_rotation",
                             "params": {"omega": -1e308}}), 0),
    (_scenario(initial_data={"kind": "taylor_vortex_swirl",
                             "params": {"swirl": 1e308}},
               forcing={"kind": "manufactured"}), 0),
    (_scenario(solver={"nu": 1e308, "t_end": 0.01},
               forcing={"kind": "manufactured"}), 2),
], ids=["omega_huge", "omega_huge_negative", "forced_swirl_huge", "nu_huge"])
def test_overflowing_inputs_leave_a_clean_stderr(tmp_path, doc, code):
    # numpy RuntimeWarnings reached stderr: the radial polynomial of a
    # rigid rotation, evaluated outside its errstate; the Laplacian in
    # the forcing of a huge swirl; and the forcing of a nu that the
    # monitor rejects, assembled before the monitor was built
    doc = {**doc, "grid": {"n_rho": 8, "n_z": 8}}
    result = _main_in_a_child(tmp_path, "run", _write(tmp_path, doc))
    assert result.returncode == code, result.stderr
    if code == 0:
        assert result.stderr == ""
        report, _ = _artifacts(tmp_path / "out")
        assert report["truncated"] is True
    else:
        assert result.stderr.startswith("error: $.solver.nu: ")
        assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("dt", [0.01, None], ids=["given", "automatic"])
def test_a_step_that_does_not_advance_the_time_is_rejected(
        tmp_path, monkeypatch, capsys, dt):
    # the float spacing at 1e15 is 0.125, so t + dt == t for dt = 0.01
    # and for the automatic 0.046: exit 2 before any output, not a
    # monitor that meets two checkpoints at one time
    doc = _scenario(grid={"n_rho": 8, "n_z": 8},
                    solver={"t_start": 1e15, "t_end": 1e15 + 1, "dt": dt})
    validate_scenario(doc)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["run", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.solver:")
    assert "does not advance the time" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("solver,initial_data,forcing,path", [
    ({"t_start": -2000.0, "t_end": 0.01}, {"kind": "taylor_vortex_swirl"},
     "manufactured", "$.solver.t_start"),
    ({"t_start": 0.0, "t_end": 0.01},
     {"kind": "taylor_vortex_swirl", "params": {"decay": -1e6}},
     "manufactured", "$.solver.t_end"),
    ({"t_start": -1e5, "t_end": 0.01}, {"kind": "decaying_swirl"}, "zero",
     "$.solver.t_start"),
], ids=["forced_taylor_early_start", "forced_taylor_growing",
        "swirl_early_start"])
def test_overflowing_time_factor_names_its_end(tmp_path, monkeypatch, capsys,
                                               solver, initial_data, forcing,
                                               path):
    # e^(-mu t) or e^(-2 mu t) is not finite at one end of the run: exit 2
    # naming that end, before any output, not an OverflowError
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver=solver,
                    initial_data=initial_data, forcing={"kind": forcing})
    validate_scenario(doc)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["run", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b'{"schema_version": ' + b"1" * 5000 + b"}",
    b"[" * 100000 + b"]" * 100000,
], ids=["not_utf8", "integer_too_long", "nested_too_deep"])
def test_run_scenario_rejects_unreadable_json(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert run_scenario(str(path)) == 2
    assert capsys.readouterr().err.startswith("error: $.: invalid JSON")


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
        mms.make_solution("taylor_vortex_swirl", {}, small), 0.0))
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 16, "n_z": 8},
        initial_data={"kind": "file", "path": path}))
    assert run_scenario(scenario) == 2
    err = capsys.readouterr().err
    assert "$.initial_data.path" in err and path in err
    assert repr(small) in err and repr(build_grid(16, 8)) in err
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


def test_the_default_scenario_runs_at_rest(tmp_path, monkeypatch):
    # the schema's defaults: zero initial data and zero forcing
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = {"schema_version": SCHEMA_VERSION, "grid": {"n_rho": 8, "n_z": 8}}
    assert run_scenario(_write(tmp_path, doc)) == 0
    lines = (tmp_path / "axiswirl-run" / "diagnostics.csv").read_text()
    header, *rows = [line.split(",") for line in lines.splitlines()]
    norms = [i for i, c in enumerate(header) if c.endswith(("_norm", "_l2"))]
    assert len(norms) == 4 and len(rows) > 1
    assert all(float(row[i]) == 0.0 for row in rows for i in norms)


def test_a_run_restarts_from_its_last_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    grid = {"n_rho": 16, "n_z": 8}
    first = _scenario(grid=grid, solver={"t_end": 0.01, "dt": 2e-3},
                      initial_data={"kind": "taylor_vortex_swirl"},
                      output={"directory": "first", "write_checkpoints": True})
    assert run_scenario(_write(tmp_path, first, "first.json")) == 0
    last = sorted((tmp_path / "first").glob("checkpoint_*.bin"))[-1]
    saved = read_checkpoint(str(last))
    assert saved.time == pytest.approx(0.01)
    restart = _scenario(grid=grid,
                        solver={"t_start": 0.01, "t_end": 0.02, "dt": 2e-3},
                        initial_data={"kind": "file", "path": str(last)},
                        output={"directory": "restart",
                                "write_checkpoints": True})
    assert run_scenario(_write(tmp_path, restart, "restart.json")) == 0
    resumed = read_checkpoint(str(tmp_path / "restart" / "checkpoint_00000.bin"))
    assert resumed.time == saved.time
    # the run projects its initial state again (ROADMAP item 8), which
    # moves a projected state by rounding only
    for name in ("u_rho", "u_phi", "u_z", "pressure"):
        a, b = getattr(resumed, name), getattr(saved, name)
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name


@pytest.mark.parametrize("directory", ["absolute", "../../dotdot",
                                       "inside/../../dotdot"])
def test_output_directory_stays_under_the_root(tmp_path, monkeypatch, capsys,
                                               directory):
    root = tmp_path / "a" / "root"
    root.mkdir(parents=True)
    if directory == "absolute":
        directory = str(tmp_path / "abs_out")
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 8, "n_z": 8}, output={"directory": directory}))
    assert run_scenario(scenario) == 2
    assert "error: $.output.directory:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "a", "root", "scenario.json"]


def _main_in_a_child(cwd, *argv):
    """main(argv) in a child process, under a timeout and a 1.5 GB
    address-space limit: a read that blocks or never ends fails the test
    instead of hanging it or taking the machine's memory.  One BLAS
    thread, since each thread's buffers count against the limit."""
    src = os.path.dirname(os.path.dirname(mms.__file__))
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20,) * 2); "
            "import axiswirl.cli as cli; sys.exit(cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env[OUTPUT_ROOT_ENV] = str(cwd)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("target", ["fifo", "/dev/zero"])
def test_a_checkpoint_path_must_be_a_regular_file(tmp_path, target):
    # os.stat opens nothing, so a FIFO cannot block the run, and
    # /dev/zero is not read: both exit 2 naming the path
    if target == "fifo":
        target = str(tmp_path / "fifo")
        os.mkfifo(target)
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 8, "n_z": 8},
        initial_data={"kind": "file", "path": target}))
    result = _main_in_a_child(tmp_path, "run", scenario)
    assert result.returncode == 2, result.stderr
    assert result.stderr == (f"error: $.initial_data.path: {target}: "
                             f"not a regular file\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["fifo", "/dev/zero"])
def test_a_scenario_must_be_a_regular_file(tmp_path, target):
    # an I/O error, like a missing scenario file; in a sweep too, where
    # the other scenarios still run
    if target == "fifo":
        target = str(tmp_path / "fifo")
        os.mkfifo(target)
    result = _main_in_a_child(tmp_path, "run", target)
    assert result.returncode == 3, result.stderr
    assert "not a regular file" in result.stderr
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    os.symlink(target, sweep_dir / "a.json")
    _write(sweep_dir, _scenario(grid={"n_rho": 8, "n_z": 8}), "b.json")
    result = _main_in_a_child(tmp_path, "sweep", str(sweep_dir))
    assert result.returncode == 3, result.stderr
    assert "a.json: exit 3" in result.stdout
    assert "b.json: exit 0" in result.stdout


@pytest.mark.parametrize("end", [b"", b"\n"],
                         ids=["no_newline", "newline_past_64_KiB"])
def test_a_checkpoint_header_is_at_most_64_KiB(tmp_path, end):
    # a valid header padded past 64 KiB, with no newline (and so no
    # payload) or with its newline and payload after the padding
    path = tmp_path / "long.bin"
    write_checkpoint(str(path), zero_state(build_grid(2, 2)))
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b" " * 65536 + (end + payload if end else b""))
    with pytest.raises(ConfigurationError, match="not a checkpoint file"):
        read_checkpoint(str(path))


def test_a_checkpoint_header_nested_too_deep_is_no_header(tmp_path,
                                                         monkeypatch, capsys):
    # 5000 nested arrays, well inside 64 KiB, are past the JSON decoder's
    # recursion limit: a restart from the file exits 2 at $.initial_data
    path = tmp_path / "nested.bin"
    write_checkpoint(str(path), zero_state(build_grid(8, 8)))
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(b"[" * 5000 + b"]" * 5000 + b"\n" + payload)
    with pytest.raises(ConfigurationError, match="not a checkpoint file"):
        read_checkpoint(str(path))
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    scenario = _write(tmp_path, _scenario(
        grid={"n_rho": 8, "n_z": 8},
        initial_data={"kind": "file", "path": str(path)}))
    assert main(["run", scenario]) == 2
    assert capsys.readouterr().err == (
        f"error: $.initial_data: {path}: not a checkpoint file\n")
    assert not (tmp_path / "out").exists()


# --- one owner per rule -----------------------------------------------------------

_OWNED_NUMBER = (st.sampled_from([0, 1, 2, 3, 4, 16, -1, 1.5, 1e-320, 1e300, -0.0])
                 | st.integers(-4, 40) | st.floats(-1e3, 1e3))
_OWNED_FIELDS = {
    "grid": ("n_rho", "n_z", "rho_max", "z_min", "z_max"),
    "solver": ("nu", "t_start", "t_end", "dt", "cfl_safety",
               "checkpoint_stride"),
    "monitor": ("q", "c_grow", "c_sob", "c3"),
}


@given(sections=st.fixed_dictionaries({
    name: st.dictionaries(st.sampled_from(keys), _OWNED_NUMBER)
    for name, keys in _OWNED_FIELDS.items()}))
@settings(max_examples=300, deadline=None)
def test_validate_scenario_rejects_exactly_what_the_owners_reject(sections):
    # finite numbers in $.grid, $.solver and $.monitor: validate_scenario
    # rejects them exactly when the constructor that owns the section
    # does, at the path of the field that the owner names (the section
    # when it names none).  The owners' defaults are the schema's.
    grid = {"n_rho": 16, "n_z": 8, **sections["grid"]}
    monitor = {k: v for k, v in sections["monitor"].items() if k != "c3"}
    expected = None
    for path, owner, values in (("$.grid", build_grid, grid),
                                ("$.solver", SimConfig, sections["solver"]),
                                ("$.monitor", monitor_settings, monitor)):
        try:
            owner(**values)
        except ConfigurationError as exc:
            expected = path if exc.field is None else f"{path}.{exc.field}"
            break
    doc = _scenario(grid=grid, solver=sections["solver"],
                    monitor=sections["monitor"])
    if expected is None:
        validate_scenario(doc)
    else:
        with pytest.raises(SchemaError) as exc:
            validate_scenario(doc)
        assert exc.value.path == expected


# --- fuzzing: only the documented errors escape ------------------------------------

_SECTIONS = {
    "grid": ("n_rho", "n_z", "rho_max", "z_min", "z_max"),
    "solver": ("nu", "t_start", "t_end", "dt", "cfl_safety",
               "checkpoint_stride"),
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


_FIELDS = [(name, key) for name, keys in _SECTIONS.items()
           for key in (None, *keys)]


def _with_field(section, key, value):
    """A valid scenario with one field (key None: the whole section)
    replaced."""
    doc = _scenario()
    doc[section] = value if key is None else {**doc.get(section, {}), key: value}
    return doc


@pytest.mark.parametrize("section,key", _FIELDS)
@given(value=_PLAUSIBLE | _JSON)
@settings(max_examples=40)
def test_validate_scenario_fuzz(section, key, value):
    try:
        validate_scenario(_with_field(section, key, value))
    except ConfigurationError:  # SchemaError included
        pass


@given(field=st.sampled_from(_FIELDS), value=_PLAUSIBLE | _JSON)
@example(field=("exponents", "b"), value="INF")
@settings(max_examples=300)
def test_a_normalized_scenario_replays(field, value):
    # a manifest's scenario block is the normalized scenario, written as
    # strict JSON: validated again, it is the same scenario
    try:
        cfg = validate_scenario(_with_field(*field, value))
    except ConfigurationError:
        return
    assert validate_scenario(_strict(cli._dumps(cfg))) == cfg


@given(section=st.sampled_from([None, *_SECTIONS]), key=st.text(max_size=8))
@example(section="solver", key="cfl_saftey")
@example(section=None, key="monitr")
# keys of an iterative pressure solve, which is direct
@example(section="solver", key="projection_tol")
@example(section="solver", key="projection_max_iter")
def test_unknown_keys_are_rejected_at_their_path(section, key):
    # a misspelt key was ignored, and the run used the default
    known = ("schema_version", *_SECTIONS) if section is None \
        else _SECTIONS[section]
    assume(key not in known)
    doc = _scenario()
    if section is None:
        doc[key], path = {}, f"$.{key}"
    else:
        doc[section] = {**doc.get(section, {}), key: 0.1}
        path = f"$.{section}.{key}"
    with pytest.raises(SchemaError) as exc:
        validate_scenario(doc)
    assert exc.value.path == path


def _checkpoint_bytes():
    state = mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}, build_grid(4, 4)), 0.25)
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
    ("taylor_vortex_swirl", {"z_min": 2.0}, "$.initial_data.params.z_min"),
    ("decaying_swirl", {"amplitud": 5}, "$.initial_data.params.amplitud"),
    ("taylor_vortex_swirl", {"omega": 1.0}, "$.initial_data.params.omega"),
    ("rigid_rotation", {"rho_max": 2.0}, "$.initial_data.params.rho_max"),
    ("zero", {"amplitude": 1.0}, "$.initial_data.params.amplitude"),
    ("file", {"nu": 0.1}, "$.initial_data.params.nu"),
])
def test_manufactured_extents_are_validated(tmp_path, monkeypatch, capsys,
                                            kind, params, path):
    # the extents are the grid's: a key that the kind does not take
    # (zero and file take none) exits 2 at its own path
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


@pytest.mark.parametrize("grid,initial_data,path", [
    ({"rho_max": 1e-300}, {"kind": "decaying_swirl"}, "$.grid.rho_max"),
    ({"rho_max": 1e-300}, {"kind": "taylor_vortex_swirl"}, "$.grid.rho_max"),
    ({"z_max": 1e-300}, {"kind": "taylor_vortex_swirl"}, "$.grid.z_max"),
    ({"rho_max": 1e-300}, {"kind": "rigid_rotation"}, "$.grid.rho_max"),
    ({"z_min": -1e308, "z_max": 1e308}, {"kind": "decaying_swirl"},
     "$.grid.z_max"),
    # spacings that build_grid accepts, with a constant of the solution
    # that leaves the floats: lambda^2 (now build_grid's rho d_rho^2
    # rule), k^2, 1/rho_max^6, nu lambda^2
    ({"n_rho": 2, "rho_max": 1.5e-154}, {"kind": "decaying_swirl"},
     "$.grid.rho_max"),
    ({"n_z": 2, "z_max": 1.5e-154}, {"kind": "taylor_vortex_swirl"},
     "$.grid.z_max"),
    ({"rho_max": 1e-52}, {"kind": "taylor_vortex_swirl"}, "$.grid.rho_max"),
    ({}, {"kind": "decaying_swirl", "params": {"nu": 1e308}},
     "$.initial_data.params.nu"),
    # spacings and cell weights in range, but a rho d_rho^2, which the
    # radial diffusion divides by, that underflows or overflows: a step
    # (any on 1e150; on 1e-150, one of a given dt) exited 4, its viscous
    # basis failing a symmetry assertion
    ({"rho_max": 1e-150}, {"kind": "zero"}, "$.grid.rho_max"),
    ({"rho_max": 1e150}, {"kind": "zero"}, "$.grid.rho_max"),
], ids=["swirl_rho_tiny", "taylor_rho_tiny", "taylor_z_tiny",
        "rigid_rho_tiny", "swirl_z_overflow", "swirl_lambda_sq",
        "taylor_k_sq", "taylor_coefficients", "swirl_decay_rate",
        "radial_diffusion_underflow", "radial_diffusion_overflow"])
def test_extreme_domains_name_the_grid_field(tmp_path, monkeypatch, capsys,
                                             grid, initial_data, path):
    # each exited 1 with an OverflowError or ZeroDivisionError, or exited
    # 2 naming $.monitor.q or $.solver.t_start
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8, **grid},
                    solver={"t_end": 0.01}, initial_data=initial_data)
    assert main(["run", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_checkpoint_header_larger_than_its_file(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "huge.bin")
    header = {"format": "axiswirl-checkpoint", "version": 1,
              "grid": {"n_rho": 10**6, "n_z": 10**6, "rho_max": 2.0,
                       "z_min": 0.0, "z_max": 1.0},
              "time": 0.0, "fields": ["u_rho", "u_phi", "u_z", "pressure"],
              "dtype": "<f8", "order": "rho-fastest"}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + bytes(64))
    with pytest.raises(ConfigurationError) as exc:
        read_checkpoint(path)
    assert path in str(exc.value) and "header key grid" in str(exc.value)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(initial_data={"kind": "file", "path": path})
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert "header key grid" in capsys.readouterr().err


def test_a_contract_violation_is_an_internal_failure(tmp_path, monkeypatch,
                                                     capsys):
    # no input reaches one: a broken precondition inside the package is
    # a failed assertion (exit 4), not a traceback with exit 1
    def broken(*args):
        raise ContractViolation("dt must be nonnegative")

    monkeypatch.setattr("axiswirl.monitor.serrin_advance", broken)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 0.01})
    assert main(["run", _write(tmp_path, doc)]) == 4
    assert capsys.readouterr().err == (
        "internal assertion failed: dt must be nonnegative\n")


def test_overflowing_state_is_blow_up(tmp_path, monkeypatch, capsys):
    # finite samples whose squares overflow: a truncated record, exit 0
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 0.01},
                    initial_data={"kind": "taylor_vortex_swirl",
                                  "params": {"amplitude": 1e300}})
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    report, _ = _artifacts(tmp_path / "out")
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
    report, _ = _artifacts(tmp_path / "out")
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
    # (the run exited 4 while the quartic identity's band did not grow
    # with the velocity scale)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 1e-13},
                    initial_data={"kind": "taylor_vortex_swirl",
                                  "params": {"amplitude": 1e12}})
    with np.errstate(all="ignore"):
        assert main(["run", _write(tmp_path, doc)]) == 0
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
    # omega^2 overflows (it raised OverflowError): an infinite pressure
    ({"a": 6, "b": 4, "gamma": 0},
     {"kind": "rigid_rotation", "params": {"omega": 1e200}}),
], ids=["serrin_power", "swirl_pressure", "rigid_pressure"])
def test_overflowing_powers_are_blow_up(tmp_path, monkeypatch, capsys,
                                        exponents, initial_data):
    # a truncated report and exit 0, not an OverflowError
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = _scenario(grid={"n_rho": 8, "n_z": 8}, solver={"t_end": 1e-6},
                    exponents=exponents, initial_data=initial_data)
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    report, _ = _artifacts(tmp_path / "out")
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


# --- exit-code contract: fuzzed scenarios run by main in a child ---------------

# The extremes a fuzzed key takes: zero, subnormals, numbers far out in
# the exponent range, the float limit, an integer beyond double
# precision, every spelling of infinity, null and true.
_EXTREMES = (0, 1e-320, -1e-320, 1e-150, 1e150, 1e308, -1e308, 2**53 + 1,
             math.inf, "inf", "Inf", "Infinity", None, True)
_CHECKPOINTS = ("written", "truncated", "oversized", "foreign")


@st.composite
def _fuzzed_scenarios(draw):
    """(doc, checkpoint): a short run on 8^2 to 16^2 cells to a t_end of
    at most 0.01 (so a few steps at most, unless a fuzzed key asks for
    more: then MAX_STEPS or the CFL limits refuse it at once), with one
    to three keys of cli._SCHEMA, or of the kind's mms.PARAMS, set to
    _EXTREMES; checkpoint names the file a `file` kind starts from."""
    kind = draw(st.sampled_from(("zero", *mms.KINDS, "file")))
    params = {}
    doc = {"schema_version": SCHEMA_VERSION,
           "grid": {"n_rho": draw(st.sampled_from((8, 16))),
                    "n_z": draw(st.sampled_from((8, 16)))},
           "solver": {"t_end": draw(st.sampled_from((1e-3, 0.01)))},
           "initial_data": {"kind": kind, "params": params,
                            "path": "ck.bin"},
           "forcing": {"kind": "manufactured" if kind in mms.KINDS
                       and draw(st.booleans()) else "zero"},
           "output": {"directory": "out"}}
    keys = [(name, key) for name, section in cli._SCHEMA.items()
            for key in section]
    keys += [("params", key) for key in mms.PARAMS.get(kind, ())]
    for name, key in draw(st.lists(st.sampled_from(keys), min_size=1,
                                   max_size=3, unique=True)):
        # a fuzzed $.initial_data.params leaves params out of doc
        section = params if name == "params" else doc.setdefault(name, {})
        section[key] = draw(st.sampled_from(_EXTREMES))
    checkpoint = draw(st.sampled_from(_CHECKPOINTS)) if kind == "file" \
        else None
    return doc, checkpoint


def _write_fuzzed_checkpoint(path, doc, which):
    """A checkpoint on the scenario's grid (the default grid where the
    draw left none it can build): written by write_checkpoint, that file
    cut in its payload or with a column of samples appended, or a foreign
    one, written by hand as another program would, of a velocity that is
    not divergence-free."""
    try:
        grid = build_grid(**{k: v for k, v in doc["grid"].items()
                             if k in ("n_rho", "n_z")})
    except (ConfigurationError, TypeError):
        grid = build_grid(8, 8)
    state = mms.sample_state(
        mms.make_solution("taylor_vortex_swirl", {}, grid), 0.0)
    if which == "foreign":
        header = {"version": 1, "format": "axiswirl-checkpoint",
                  "fields": ["u_rho", "u_phi", "u_z", "pressure"],
                  "time": 0.0,
                  "grid": {"n_rho": grid.n_rho, "n_z": grid.n_z,
                           "rho_max": 2.0, "z_min": 0.0, "z_max": 1.0},
                  "dtype": "<f8", "order": "rho-fastest"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field in (np.ones(grid.shape), state.u_phi, state.u_z,
                          state.pressure):
                fh.write(np.ascontiguousarray(field.T, dtype="<f8").tobytes())
        return
    write_checkpoint(path, state)
    if which == "truncated":
        os.truncate(path, os.path.getsize(path) - 8 * grid.n_z)
    elif which == "oversized":
        with open(path, "ab") as fh:
            fh.write(bytes(8 * grid.n_z))


@settings(max_examples=40)
@given(_fuzzed_scenarios())
def test_every_fuzzed_scenario_meets_the_exit_code_contract(draw):
    # exit 0 or 4 with a clean stderr, or exit 2 or 3 with one error line
    # (2 naming the field's path) and no artifact
    doc, checkpoint = draw
    with tempfile.TemporaryDirectory() as tmp:
        if checkpoint is not None:
            _write_fuzzed_checkpoint(os.path.join(tmp, "ck.bin"), doc,
                                     checkpoint)
        scenario = _write(pathlib.Path(tmp), doc)
        before = sorted(os.listdir(tmp))
        result = _main_in_a_child(tmp, "run", scenario)
        code, err = result.returncode, result.stderr
        assert code in (0, 2, 3, 4), (code, err)
        if code in (0, 4):
            assert err == "", err
            # both artifacts, as strict JSON (a fuzzed directory may be
            # "inf", a valid name)
            _artifacts(pathlib.Path(tmp, doc["output"]["directory"]))
        else:
            assert err.count("\n") == 1 and err.startswith(
                "error: $." if code == 2 else "error: "), err
            assert sorted(os.listdir(tmp)) == before
