"""Command-line surface: scenario runs, exponent checks, convergence
reports, and sweeps.

Subcommands
    run <scenario.json>      integrate, monitor, and persist one scenario
    check-exponents a b g    admissibility verdict and derived exponents
    mms <kind> <n n n ...>   refinement study against the 1.9-order bar
    sweep <dir>              run every scenario file in a directory

Exit codes: 0 success (blow-up counts as success with a truncation
flag), 2 configuration/validation error, 3 I/O error, 4 internal
assertion failure.

All artifacts are deterministic: CSV numbers use 17 significant digits,
checkpoint files are a one-line JSON header plus raw little-endian
float64 arrays in rho-fastest row-major order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigurationError, InadmissibleExponents
from .exponents import check_admissible, derive_exponents, holder_young_pairs
from .fields import zero_state
from .grid import CylGrid, build_grid
from .monitor import (
    DEFAULT_EPSILON_LIST,
    MonitorConfig,
    blowup_indicator,
    collect_diagnostics,
    epsilon_sequence,
    evaluate_checks,
    margin_columns,
    monitor_for,
)
from .solver import SimConfig, run
from . import mms

SCHEMA_VERSION = 1
CHECKPOINT_VERSION = 1
OUTPUT_ROOT_ENV = "AXISWIRL_OUTPUT_ROOT"

_FIELD_NAMES = ("u_rho", "u_phi", "u_z", "pressure")


class SchemaError(ConfigurationError):
    """Scenario validation failure; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


# --- checkpoint persistence -----------------------------------------------

def write_checkpoint(path, state):
    g = state.grid
    header = {
        "format": "axiswirl-checkpoint",
        "version": CHECKPOINT_VERSION,
        "grid": {
            "n_rho": g.n_rho, "n_z": g.n_z, "rho_max": g.rho_max,
            "z_min": g.z_min, "z_max": g.z_max,
        },
        "time": state.time,
        "fields": list(_FIELD_NAMES),
        "dtype": "<f8",
        "order": "rho-fastest",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for name in _FIELD_NAMES:
            arr = getattr(state, name).values
            # arrays are (n_rho, n_z); rho-fastest means rho varies within
            # a row of the serialized stream
            fh.write(np.ascontiguousarray(arr.T, dtype="<f8").tobytes())


def _read_header(path, line, payload):
    """Parse a checkpoint header line into (grid, time, field names).

    payload is the number of bytes after the header line.  Any malformed
    header, or one declaring more samples than the payload holds, raises
    ConfigurationError naming the file and the offending key.
    """
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != "axiswirl-checkpoint":
        raise ConfigurationError(f"{path}: not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported checkpoint version {header.get('version')}"
        )

    def key(section, name, where):
        if not isinstance(section, dict) or name not in section:
            raise ConfigurationError(f"{path}: header key {where} is missing")
        return section[name]

    names = key(header, "fields", "fields")
    if (not isinstance(names, list) or not names
            or any(n not in _FIELD_NAMES for n in names)):
        raise ConfigurationError(
            f"{path}: header key fields: expected names from {_FIELD_NAMES}, "
            f"got {names!r}"
        )
    gd = key(header, "grid", "grid")
    args = [key(gd, k, f"grid.{k}")
            for k in ("n_rho", "n_z", "rho_max", "z_min", "z_max")]
    # compare the declared sample count with the file before the grid
    # allocates anything; non-integral counts are left to build_grid
    counts = [int(n) if isinstance(n, float) and n.is_integer() else n
              for n in args[:2]]
    if all(type(n) is int for n in counts):
        declared = 8 * counts[0] * counts[1] * len(names)
        if declared > payload:
            raise ConfigurationError(
                f"{path}: header key grid: {counts[0]} x {counts[1]} cells "
                f"need {declared} bytes of samples, the file holds {payload}"
            )
    try:
        grid = build_grid(*args)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: header key grid: {exc}") from None
    time = key(header, "time", "time")
    try:
        finite = not isinstance(time, bool) and math.isfinite(time)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigurationError(
            f"{path}: header key time: expected a finite number, got {time!r}"
        )
    return grid, time, names


def read_checkpoint(path):
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = os.fstat(fh.fileno()).st_size - len(line)
        grid, time, names = _read_header(path, line, payload)
        n = grid.n_rho * grid.n_z
        fields = {}
        for name in names:
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise ConfigurationError(f"{path}: truncated field {name}")
            fields[name] = np.frombuffer(raw, dtype="<f8").reshape(
                grid.n_z, grid.n_rho
            ).T.copy()
            if not np.all(np.isfinite(fields[name])):
                raise ConfigurationError(
                    f"{path}: non-finite samples in field {name}"
                )
    return zero_state(grid).replace_fields(time=time, **fields)


# --- scenario schema --------------------------------------------------------

def _expect(obj, path, typ, message=None):
    if not isinstance(obj, typ):
        want = message or getattr(typ, "__name__", str(typ))
        raise SchemaError(path, f"expected {want}, got {type(obj).__name__}")
    return obj


def _number(section, key, path, default=None, allow_none=False):
    if key not in section:
        if default is not None or allow_none:
            return default
        raise SchemaError(f"{path}.{key}", "missing required field")
    val = section[key]
    if val is None and allow_none:
        return None
    return _as_float(val, f"{path}.{key}")


def _as_float(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(path, f"expected a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:
        raise SchemaError(path, f"number out of range: {val!r}") from None


def _integer(section, key, path, default):
    val = float(_number(section, key, path, default))
    if not val.is_integer():
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {val!r}")
    return int(val)


_INITIAL_KINDS = ("zero", "rigid_rotation", "taylor_vortex_swirl",
                  "decaying_swirl", "file")
_FORCING_KINDS = ("zero", "manufactured")


def validate_scenario(doc) -> dict:
    """Normalize a scenario document, filling defaults; raises SchemaError
    with the offending field path on the first violation."""
    _expect(doc, "$", dict)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("$.schema_version",
                          f"must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    out = {"schema_version": SCHEMA_VERSION}

    grid = _expect(doc.get("grid", {}), "$.grid", dict)
    out["grid"] = {
        "n_rho": _integer(grid, "n_rho", "$.grid", 32),
        "n_z": _integer(grid, "n_z", "$.grid", 32),
        "rho_max": _number(grid, "rho_max", "$.grid", 2.0),
        "z_min": _number(grid, "z_min", "$.grid", 0.0),
        "z_max": _number(grid, "z_max", "$.grid", 1.0),
    }
    if out["grid"]["n_rho"] < 2 or out["grid"]["n_z"] < 2:
        raise SchemaError("$.grid", "cell counts must be >= 2")
    if not out["grid"]["rho_max"] > 0:
        raise SchemaError("$.grid.rho_max", "must be positive")
    if not out["grid"]["z_max"] > out["grid"]["z_min"]:
        raise SchemaError("$.grid.z_max", "must exceed z_min")

    sv = _expect(doc.get("solver", {}), "$.solver", dict)
    out["solver"] = {
        "nu": _number(sv, "nu", "$.solver", 0.1),
        "t_start": _number(sv, "t_start", "$.solver", 0.0),
        "t_end": _number(sv, "t_end", "$.solver", 0.1),
        "dt": _number(sv, "dt", "$.solver", allow_none=True),
        "cfl_safety": _number(sv, "cfl_safety", "$.solver", 0.4),
        "checkpoint_stride": _integer(sv, "checkpoint_stride", "$.solver", 1),
    }
    # type-checked for schema-v1 compatibility, then dropped: the pressure
    # solve is direct
    _number(sv, "projection_tol", "$.solver", 1e-10)
    _integer(sv, "projection_max_iter", "$.solver", 20000)
    if not out["solver"]["nu"] > 0:
        raise SchemaError("$.solver.nu", "must be positive")
    for key in ("t_start", "t_end"):
        if not math.isfinite(out["solver"][key]):
            raise SchemaError(f"$.solver.{key}", "must be finite")
    if not out["solver"]["t_end"] > out["solver"]["t_start"]:
        raise SchemaError("$.solver.t_end", "must exceed t_start")
    if out["solver"]["dt"] is not None and not out["solver"]["dt"] > 0:
        raise SchemaError("$.solver.dt", "must be positive")
    if not out["solver"]["cfl_safety"] > 0:
        raise SchemaError("$.solver.cfl_safety", "must be positive")
    if out["solver"]["checkpoint_stride"] < 1:
        raise SchemaError("$.solver.checkpoint_stride", "must be >= 1")

    ex = _expect(doc.get("exponents", {}), "$.exponents", dict)
    b_raw = ex.get("b", 4)
    if b_raw in ("inf", "Infinity"):
        b_val = math.inf
    else:
        b_val = _as_float(b_raw, "$.exponents.b")
    out["exponents"] = {
        "a": _number(ex, "a", "$.exponents", 6.0),
        "b": b_val,
        "gamma": _number(ex, "gamma", "$.exponents", 0.0),
        "delta": _number(ex, "delta", "$.exponents", allow_none=True),
    }
    violations = check_admissible(
        out["exponents"]["a"], out["exponents"]["b"], out["exponents"]["gamma"]
    )
    if violations:
        raise SchemaError("$.exponents", "; ".join(violations))

    mo = _expect(doc.get("monitor", {}), "$.monitor", dict)
    eps = _expect(mo.get("epsilon_list", list(DEFAULT_EPSILON_LIST)),
                  "$.monitor.epsilon_list", list)
    eps = [_as_float(e, f"$.monitor.epsilon_list[{i}]") for i, e in enumerate(eps)]
    try:
        epsilon_sequence(eps)
    except ConfigurationError as exc:
        raise SchemaError("$.monitor.epsilon_list", str(exc)) from None
    out["monitor"] = {
        "q": _integer(mo, "q", "$.monitor", 4),
        "epsilon_list": eps,
        "c_grow": _number(mo, "c_grow", "$.monitor", allow_none=True),
        "c_sob": _number(mo, "c_sob", "$.monitor", allow_none=True),
        "c3": _number(mo, "c3", "$.monitor", 0.0),
    }
    if out["monitor"]["q"] < 2 or out["monitor"]["q"] % 2:
        raise SchemaError("$.monitor.q", "must be an even integer >= 2")
    for key in ("c_grow", "c_sob"):
        val = out["monitor"][key]
        if val is not None and not (math.isfinite(val) and val > 0):
            raise SchemaError(f"$.monitor.{key}", "must be a finite positive number")

    init = _expect(doc.get("initial_data", {"kind": "zero"}),
                   "$.initial_data", dict)
    kind = init.get("kind", "zero")
    if kind not in _INITIAL_KINDS:
        raise SchemaError("$.initial_data.kind",
                          f"must be one of {_INITIAL_KINDS}, got {kind!r}")
    params = _expect(init.get("params", {}), "$.initial_data.params", dict)
    for key, val in params.items():
        if not math.isfinite(_as_float(val, f"$.initial_data.params.{key}")):
            raise SchemaError(f"$.initial_data.params.{key}", "must be finite")
    if not params.get("rho_max", 1.0) > 0:
        raise SchemaError("$.initial_data.params.rho_max", "must be positive")
    if not params.get("z_max", 1.0) > params.get("z_min", 0.0):
        raise SchemaError("$.initial_data.params.z_max", "must exceed z_min")
    out["initial_data"] = {"kind": kind, "params": params}
    if kind == "file":
        path = init.get("path")
        if not isinstance(path, str) or not path or "\0" in path:
            raise SchemaError("$.initial_data.path", "a non-empty path without "
                              "NUL characters is required for kind 'file'")
        out["initial_data"]["path"] = path

    forcing = _expect(doc.get("forcing", {"kind": "zero"}), "$.forcing", dict)
    fkind = forcing.get("kind", "zero")
    if fkind not in _FORCING_KINDS:
        raise SchemaError("$.forcing.kind",
                          f"must be one of {_FORCING_KINDS}, got {fkind!r}")
    if fkind == "manufactured" and kind in ("zero", "file"):
        raise SchemaError("$.forcing.kind",
                          "manufactured forcing needs a manufactured initial kind")
    out["forcing"] = {"kind": fkind}

    outp = _expect(doc.get("output", {}), "$.output", dict)
    directory = outp.get("directory", "axiswirl-run")
    if not isinstance(directory, str) or not directory or "\0" in directory:
        raise SchemaError("$.output.directory",
                          "must be a non-empty string without NUL characters")
    out["output"] = {
        "directory": directory,
        "write_checkpoints": bool(outp.get("write_checkpoints", False)),
    }
    return out


# --- scenario execution -----------------------------------------------------

def _initial_state_and_forcing(cfg: dict, grid: CylGrid, nu: float):
    kind = cfg["initial_data"]["kind"]
    params = cfg["initial_data"]["params"]
    if kind == "zero":
        return zero_state(grid), None, None
    if kind == "file":
        path = cfg["initial_data"]["path"]
        state = read_checkpoint(path)
        if state.grid != grid:
            raise SchemaError("$.initial_data.path",
                              f"{path} holds {state.grid}, but $.grid is {grid}")
        return state, None, None
    sol = mms.make_solution(kind, dict(params))
    state = zero_state(grid).replace_fields(
        **{k: getattr(mms.sample_state(sol, grid, 0.0), k).values
           for k in ("u_rho", "u_phi", "u_z", "pressure")}
    )
    forcing = None
    if cfg["forcing"]["kind"] == "manufactured":
        forcing = mms.forcing_callable(sol, nu, grid)
    return state, forcing, sol


_BASE_COLUMNS = (
    "time", "swirl_q_norm", "d_t", "serrin_running", "gronwall_envelope",
    "forcing_q_norm", "weighted_vort_energy", "quartic_swirl_r2",
    "quartic_swirl_r4", "dissipation_swirl_grad", "dissipation_swirl_axis",
    "dissipation_vort", "dissipation_quartic", "grad_u_l2", "vort_l2",
    "transport_cancellation", "f_indicator", "truncated",
)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if x is None:
        return "nan"
    return "%.17g" % x


def write_diagnostics_csv(path, records, m: MonitorConfig):
    margins = margin_columns(m)
    lines = [",".join([*_BASE_COLUMNS, *margins])]
    for r in records:
        vals = [_fmt(getattr(r, c)) for c in _BASE_COLUMNS]
        vals += [_fmt(r.margins.get(c, math.nan)) for c in margins]
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_scenario(path) -> int:
    """Execute one scenario file; returns the process exit status."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # also undecodable text and oversized integers
        print(f"error: $.: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = validate_scenario(doc)
        exps = derive_exponents(
            cfg["exponents"]["a"], cfg["exponents"]["b"],
            cfg["exponents"]["gamma"], cfg["exponents"]["delta"],
        )
    except InadmissibleExponents as exc:
        print(f"error: $.exponents: {'; '.join(exc.violations)}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    outdir = os.path.join(root, cfg["output"]["directory"])
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 3

    g = build_grid(**cfg["grid"])
    sim = SimConfig(
        n_rho=g.n_rho, n_z=g.n_z, rho_max=g.rho_max, z_min=g.z_min,
        z_max=g.z_max, **cfg["solver"]
    )
    try:
        state, forcing, _sol = _initial_state_and_forcing(cfg, g, sim.nu)
    except OSError as exc:
        print(f"error: cannot read initial data: {exc}", file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: $.initial_data: {exc}", file=sys.stderr)
        return 2

    # overflow in a blowing-up run is an expected outcome (a truncated
    # trajectory or record), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(sim, state, forcing_at=forcing)
        mcfg = monitor_for(g, exps, sim.nu, **cfg["monitor"])
        records = collect_diagnostics(traj.checkpoints, mcfg,
                                      forcing_at=forcing)
        checks = evaluate_checks(records, mcfg, g, traj.dt)
        blowup = blowup_indicator(records)

    try:
        write_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"),
                              records, mcfg)
        if cfg["output"]["write_checkpoints"]:
            for i, s in enumerate(traj.checkpoints):
                write_checkpoint(
                    os.path.join(outdir, f"checkpoint_{i:05d}.bin"), s
                )
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "scenario": cfg,
            "resolved": {
                "dt": traj.dt,
                "steps": traj.step_count,
                "c_sob": mcfg.c_sob,
                "c_grow": mcfg.c_grow,
                "exponents": exps.as_dict(),
            },
            "checkpoint_hashes": [
                traj.checkpoint_hash(i) for i in range(len(traj.checkpoints))
            ],
            "failed": traj.failed,
            "failure_reason": traj.failure_reason,
        }
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report = {
            "checks": checks,
            "blowup_indicator": blowup,
            "truncated": bool(traj.failed or blowup["truncated"]),
            "failure_reason": traj.failure_reason,
        }
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(outdir, "report.txt"), "w") as fh:
            for c in checks:
                tol = "-" if c["tolerance"] is None else _fmt(c["tolerance"])
                fh.write(f"{c['name']:<28} {c['status']:<12} "
                         f"margin={_fmt(c['margin'])} tol={tol}\n")
            if traj.failed:
                fh.write(f"trajectory truncated: {traj.failure_reason}\n")
            for k in sorted(blowup):
                fh.write(f"blowup.{k} = {blowup[k]}\n")
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 3

    failed_checks = [c for c in checks if c["asserted"] and c["status"] == "FAIL"]
    for c in checks:
        print(f"{c['name']}: {c['status']}")
    if traj.failed:
        print(f"trajectory truncated: {traj.failure_reason}")
    return 0 if not failed_checks else 4


# --- other subcommands ------------------------------------------------------

def _parse_exponent(text, name):
    if text in ("inf", "Inf", "Infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise SchemaError(name, f"malformed number {text!r}")


def check_exponents_cmd(a_text, b_text, g_text) -> int:
    try:
        a = _parse_exponent(a_text, "a")
        b = _parse_exponent(b_text, "b")
        gamma = _parse_exponent(g_text, "gamma")
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = check_admissible(a, b, gamma)
    block = {"a": a, "b": b, "gamma": gamma,
             "admissible": not violations, "violations": violations}
    if violations:
        print("verdict: inadmissible")
        for v in violations:
            print(f"  {v}")
    else:
        try:
            e = derive_exponents(a, b, gamma)
        except InadmissibleExponents as exc:
            print("verdict: inadmissible")
            for v in exc.violations:
                print(f"  {v}")
            block["admissible"] = False
            block["violations"] = exc.violations
            print(json.dumps(block, sort_keys=True, default=str))
            return 0
        print("verdict: admissible")
        for key, val in e.as_dict().items():
            print(f"  {key:<6} = {val}")
        print("  conjugate pairs (1/x + 1/y = 1):")
        for name, x, y in holder_young_pairs(e):
            print(f"    {name:<16} ({x:.12g}, {y:.12g})")
        block["exponents"] = e.as_dict()
        block["pairs"] = [
            {"name": n, "x": x, "y": y} for n, x, y in holder_young_pairs(e)
        ]
    print(json.dumps(block, sort_keys=True, default=str))
    return 0


_MMS_QUANTITY = {
    "decaying_swirl": "solver",
    "taylor_vortex_swirl": "solver",
    "rigid_rotation": "operator",
    "lopsided_curl": "lopsided_curl",
}


def mms_cmd(kind, levels, nu=0.1, threshold=1.9, outdir=None) -> int:
    if kind not in _MMS_QUANTITY:
        print(f"error: unknown kind {kind!r}; choose from "
              f"{sorted(_MMS_QUANTITY)}", file=sys.stderr)
        return 2
    if len(levels) < 3:
        print("error: need at least 3 refinement levels", file=sys.stderr)
        return 2
    sol_kind = "taylor_vortex_swirl" if kind == "lopsided_curl" else kind
    sol = mms.make_solution(sol_kind, {})
    grids = [build_grid(n, n) for n in levels]
    result = mms.convergence_order(
        sol, grids, quantity=_MMS_QUANTITY[kind], nu=nu
    )
    verdict = "PASS" if all(o >= threshold for o in result["orders"]) else "FAIL"
    lines = ["level,cells,error,order"]
    for i, (n, err) in enumerate(zip(levels, result["errors"])):
        order = "" if i == 0 else _fmt(result["orders"][i - 1])
        lines.append(f"{i},{n},{_fmt(err)},{order}")
    csv = "\n".join(lines) + "\n"
    if outdir:
        try:
            os.makedirs(outdir, exist_ok=True)
            with open(os.path.join(outdir, f"convergence_{kind}.csv"), "w") as fh:
                fh.write(csv)
        except OSError as exc:
            print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
            return 3
    print(csv, end="")
    print(f"orders: {[round(o, 3) for o in result['orders']]} "
          f"threshold {threshold}: {verdict}")
    return 0


def sweep_cmd(directory) -> int:
    try:
        names = sorted(
            n for n in os.listdir(directory) if n.endswith(".json")
        )
    except OSError as exc:
        print(f"error: cannot list sweep directory: {exc}", file=sys.stderr)
        return 3
    if not names:
        print("error: no scenario files in sweep directory", file=sys.stderr)
        return 2
    codes = [run_scenario(os.path.join(directory, n)) for n in names]
    for name, code in zip(names, codes):
        print(f"{name}: exit {code}")
    return 0 if all(c == 0 for c in codes) else max(codes)


# --- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="axiswirl",
        description="axisymmetric swirl solver and regularity-estimate monitor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")

    p_chk = sub.add_parser("check-exponents", help="admissibility and derived exponents")
    p_chk.add_argument("a")
    p_chk.add_argument("b")
    p_chk.add_argument("gamma")

    p_mms = sub.add_parser("mms", help="convergence study")
    p_mms.add_argument("kind")
    p_mms.add_argument("levels", nargs="*", type=int)
    p_mms.add_argument("--nu", type=float, default=0.1)
    p_mms.add_argument("--outdir", default=None)

    p_sweep = sub.add_parser("sweep", help="run every scenario in a directory")
    p_sweep.add_argument("directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.scenario)
        if args.command == "check-exponents":
            return check_exponents_cmd(args.a, args.b, args.gamma)
        if args.command == "mms":
            return mms_cmd(args.kind, args.levels, nu=args.nu,
                           outdir=args.outdir)
        if args.command == "sweep":
            return sweep_cmd(args.directory)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
