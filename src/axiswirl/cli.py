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
JSON is strict (_json_number spells a non-finite number), and a
checkpoint is a one-line JSON header plus its payload (_payload), the
little-endian float64 samples that its manifest hash covers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .errors import ConfigurationError, InadmissibleExponents
from .exponents import derive_exponents, holder_young_pairs
from .fields import VelocityState, zero_state
from .grid import CylGrid, build_grid
from .monitor import (
    COLUMNS,
    DEFAULT_EPSILON_LIST,
    Diagnostics,
    MonitorConfig,
    blowup_indicator,
    evaluate_checks,
    margin_columns,
    monitor_for,
    monitor_settings,
)
from .solver import SimConfig, run
from . import mms

# The imports above leave about 21k objects that the cyclic collector
# tracks, nearly all numpy's, and none of them ever becomes garbage.
# Freezing them keeps every later collection off them, among them the
# full passes at interpreter exit (8-10 ms each).  Once, here: a freeze
# per main() call would also freeze an in-process caller's uncollected
# garbage.  Output files are closed by `with`, never left to collection.
gc.freeze()

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "AXISWIRL_OUTPUT_ROOT"

_FIELD_NAMES = ("u_rho", "u_phi", "u_z", "pressure")
# every checkpoint header's keys besides its grid and time, as written
# and as the reader requires them
_HEADER = {"format": "axiswirl-checkpoint", "version": 1, "dtype": "<f8",
           "order": "rho-fastest", "fields": list(_FIELD_NAMES)}


class SchemaError(ConfigurationError):
    """Scenario validation failure; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _json_number(val):
    """The one JSON spelling of a non-finite number, which strict JSON has
    no token for.  Written, a float NaN is null, +-inf is "inf" or "-inf"
    and a finite float itself.  Read, a string is the float that float()
    reads ("INF" and "+infinity" are inf too), or itself if it reads none."""
    if isinstance(val, float):
        return val if math.isfinite(val) else None if val != val else str(val)
    try:
        return float(val) if isinstance(val, str) else val
    except ValueError:
        return val


def _dumps(obj, **kwargs):
    """obj as strict JSON, keys sorted, each float as _json_number writes it."""
    def spelt(x):
        if isinstance(x, dict):
            return {k: spelt(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [spelt(v) for v in x]
        return _json_number(x) if isinstance(x, float) else x
    return json.dumps(spelt(obj), allow_nan=False, sort_keys=True, **kwargs)


# --- checkpoint persistence -----------------------------------------------

def _payload(state):
    """The bytes of a checkpoint after its header line, as two C-ordered
    arrays: u's three rows, then the pressure, each rho-fastest."""
    return (np.ascontiguousarray(state.u.swapaxes(-1, -2), dtype="<f8"),
            np.ascontiguousarray(state.pressure.T, dtype="<f8"))


def write_checkpoint(path, state):
    """Write state's checkpoint to path; returns its manifest hash
    (state_hash), taken over the arrays it wrote."""
    g = state.grid
    header = {
        **_HEADER,
        "grid": {
            "n_rho": g.n_rho, "n_z": g.n_z, "rho_max": g.rho_max,
            "z_min": g.z_min, "z_max": g.z_max,
        },
        "time": state.time,
    }
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        fh.write(_dumps(header).encode() + b"\n")
        for arr in _payload(state):
            fh.write(arr)
            h.update(arr)
    return h.hexdigest()


def state_hash(state):
    """The manifest's hash of a checkpoint: sha256 over its payload, as
    `tail -n +2 FILE | sha256sum` computes it from the written file."""
    h = hashlib.sha256()
    for arr in _payload(state):
        h.update(arr)
    return h.hexdigest()


def _read_header(path, line, payload):
    """Parse a checkpoint header line into (grid, time).

    payload is the number of bytes after the header line.  A malformed
    header, one whose value of a _HEADER key is not the writer's, or one
    declaring other samples than the payload holds, raises
    ConfigurationError naming the file and the offending key.
    """
    try:
        # a line cut at MAX_HEADER_BYTES is no header
        header = json.loads(line) if line.endswith(b"\n") else None
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        header = None
    if not isinstance(header, dict) or header.get("format") != _HEADER["format"]:
        raise ConfigurationError(f"{path}: not a checkpoint file")
    for name, want in _HEADER.items():
        if header.get(name) != want:
            raise ConfigurationError(f"{path}: header key {name}: expected "
                                     f"{want!r}, got {header.get(name)!r}")

    def key(section, name, where):
        if not isinstance(section, dict) or name not in section:
            raise ConfigurationError(f"{path}: header key {where} is missing")
        return section[name]

    gd = key(header, "grid", "grid")
    args = [key(gd, k, f"grid.{k}")
            for k in ("n_rho", "n_z", "rho_max", "z_min", "z_max")]
    try:
        # build_grid refuses counts above MAX_CELLS before it allocates
        grid = build_grid(*args)
    except (TypeError, ValueError) as exc:  # ConfigurationError among them
        raise ConfigurationError(f"{path}: header key grid: {exc}") from None
    declared = 8 * grid.n_rho * grid.n_z * len(_FIELD_NAMES)
    if declared != payload:
        raise ConfigurationError(
            f"{path}: header key grid: {grid.n_rho} x {grid.n_z} cells need "
            f"{declared} bytes of samples, the file holds {payload}")
    time = key(header, "time", "time")
    try:
        finite = not isinstance(time, bool) and math.isfinite(time)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigurationError(
            f"{path}: header key time: expected a finite number, got {time!r}"
        )
    return grid, time


# the longest header line read_checkpoint reads; write_checkpoint writes
# at most about 310 bytes
MAX_HEADER_BYTES = 65536


def _is_regular_file(path) -> bool:
    """Whether path is a regular file, by os.stat, which opens nothing: a
    FIFO would block an open, and a device like /dev/zero never ends.
    OSError (a missing file, say) as os.stat raises it."""
    return stat.S_ISREG(os.stat(path).st_mode)


def read_checkpoint(path):
    """The state a checkpoint file holds.  ConfigurationError for a file
    that is not one, naming path when it is not a regular file."""
    if not _is_regular_file(path):
        raise ConfigurationError(f"{path}: not a regular file", "path")
    with open(path, "rb") as fh:
        line = fh.readline(MAX_HEADER_BYTES)
        payload = os.fstat(fh.fileno()).st_size - len(line)
        grid, time = _read_header(path, line, payload)
        raw = fh.read(payload)
    if len(raw) != payload:  # the file shrank after its size was read
        raise ConfigurationError(f"{path}: truncated payload")
    fields = np.frombuffer(raw, dtype="<f8").reshape(
        len(_FIELD_NAMES), grid.n_z, grid.n_rho).swapaxes(-1, -2)
    for name, field in zip(_FIELD_NAMES, fields):
        if not np.all(np.isfinite(field)):
            raise ConfigurationError(
                f"{path}: non-finite samples in field {name}")
    return VelocityState(grid, fields[:3], fields[3], float(time))


# --- scenario schema --------------------------------------------------------

def _expect(obj, path, typ):
    if not isinstance(obj, typ):
        raise SchemaError(path, f"expected {typ.__name__}, "
                                f"got {type(obj).__name__}")
    return obj


def _as_float(val, path):
    """val as a finite float; JSON reads 1e400 and Infinity as inf."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(path, f"expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:
        raise SchemaError(path, f"number out of range: {val!r}") from None
    if not math.isfinite(val):
        raise SchemaError(path, f"expected a finite number, got {val!r}")
    return val


# Every section of a scenario besides schema_version: its keys and their
# defaults (README "Scenario files").  A number whose default is None may
# also be null.
_SCHEMA = {
    "grid": {"n_rho": 32, "n_z": 32, "rho_max": 2.0, "z_min": 0.0,
             "z_max": 1.0},
    "solver": {"nu": 0.1, "t_start": 0.0, "t_end": 0.1, "dt": None,
               "cfl_safety": 0.4, "checkpoint_stride": 1},
    "exponents": {"a": 6.0, "b": 4, "gamma": 0.0, "delta": None},
    "monitor": {"q": 4, "epsilon_list": list(DEFAULT_EPSILON_LIST),
                "c_grow": None, "c_sob": None, "c3": 0.0},
    "initial_data": {"kind": "zero", "params": {}, "path": None},
    "forcing": {"kind": "zero"},
    "output": {"directory": "axiswirl-run", "write_checkpoints": False},
}


def _section(doc, name):
    """doc[name] with _SCHEMA's defaults filling the keys it leaves out;
    SchemaError at the path of a key that _SCHEMA does not list."""
    given = _expect(doc.get(name, {}), f"$.{name}", dict)
    for key in given:
        if key not in _SCHEMA[name]:
            raise SchemaError(f"$.{name}.{key}", f"unknown key; the keys "
                              f"are {list(_SCHEMA[name])}")
    return {**_SCHEMA[name], **given}


def _numbers(section, name, keys):
    """The keys of a section (_section) as floats, or None for a null
    whose default is None."""
    return {key: None if section[key] is None and _SCHEMA[name][key] is None
            else _as_float(section[key], f"$.{name}.{key}") for key in keys}


# arguments of the monitor and of make_solution held in other sections
_BORROWED = {("$.monitor", "nu"): "$.solver.nu",
             ("$.monitor", "exponents"): "$.exponents",
             ("$.grid", "nu"): "$.initial_data.params.nu"}


def _owned(section, build, *args, **kwargs):
    """build(*args, **kwargs) for the owner of the rules on a scenario
    section.  A ConfigurationError it raises is raised again as a
    SchemaError at the path of the argument it names: section.field, or
    section when it names none, or the path in _BORROWED."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        path = section if exc.field is None else _BORROWED.get(
            (section, exc.field), f"{section}.{exc.field}")
        raise SchemaError(path, str(exc)) from None


_INITIAL_KINDS = ("zero", *mms.KINDS, "file")
_FORCING_KINDS = ("zero", "manufactured")


def validate_scenario(doc) -> dict:
    """Normalize a scenario document, filling defaults; raises SchemaError
    with the offending field path on the first violation.

    Sections and keys (_SCHEMA), types, finiteness, enums and paths are
    checked here; every other rule on a section is its owner's, called
    on it: build_grid, SimConfig, derive_exponents, monitor_settings and
    mms.solution_params (a kind's params keys).  The rules that join
    sections are met when run_scenario builds the solution, the monitor
    and the run."""
    _expect(doc, "$", dict)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("$.schema_version",
                          f"must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    for name in doc:
        if name != "schema_version" and name not in _SCHEMA:
            raise SchemaError(f"$.{name}", f"unknown section; the sections "
                                           f"are {list(_SCHEMA)}")
    sec = {name: _section(doc, name) for name in _SCHEMA}
    out = {"schema_version": SCHEMA_VERSION}

    grid = _numbers(sec["grid"], "grid", _SCHEMA["grid"])
    g = _owned("$.grid", build_grid, **grid)
    out["grid"] = {key: getattr(g, key) for key in grid}

    solver = _numbers(sec["solver"], "solver", _SCHEMA["solver"])
    sim = _owned("$.solver", SimConfig, **solver)
    out["solver"] = {key: getattr(sim, key) for key in SimConfig.__slots__}

    b = sec["exponents"]["b"]  # b = inf is a string: _json_number reads it
    out["exponents"] = {
        **_numbers(sec["exponents"], "exponents", ("a", "gamma", "delta")),
        "b": math.inf if _json_number(b) == math.inf
        else _as_float(b, "$.exponents.b"),
    }
    _owned("$.exponents", derive_exponents, **out["exponents"])

    eps = _expect(sec["monitor"]["epsilon_list"], "$.monitor.epsilon_list",
                  list)
    out["monitor"] = {
        **_numbers(sec["monitor"], "monitor", ("q", "c_grow", "c_sob", "c3")),
        "epsilon_list": [_as_float(e, f"$.monitor.epsilon_list[{i}]")
                         for i, e in enumerate(eps)],
    }
    m = out["monitor"]
    _owned("$.monitor", monitor_settings, m["q"], m["epsilon_list"],
           m["c_grow"], m["c_sob"])
    m["q"] = int(m["q"])

    kind = sec["initial_data"]["kind"]
    if kind not in _INITIAL_KINDS:
        raise SchemaError("$.initial_data.kind",
                          f"must be one of {_INITIAL_KINDS}, got {kind!r}")
    # a copy: the default is _SCHEMA's own dict
    params = dict(_expect(sec["initial_data"]["params"],
                          "$.initial_data.params", dict))
    for key, val in params.items():
        _as_float(val, f"$.initial_data.params.{key}")
    _owned("$.initial_data.params", mms.solution_params, kind, params)
    out["initial_data"] = {"kind": kind, "params": params}
    if kind == "file":
        path = sec["initial_data"]["path"]
        if not isinstance(path, str) or not path or "\0" in path:
            raise SchemaError("$.initial_data.path", "a non-empty path without "
                              "NUL characters is required for kind 'file'")
        out["initial_data"]["path"] = path

    fkind = sec["forcing"]["kind"]
    if fkind not in _FORCING_KINDS:
        raise SchemaError("$.forcing.kind",
                          f"must be one of {_FORCING_KINDS}, got {fkind!r}")
    if fkind == "manufactured" and kind not in mms.KINDS:
        raise SchemaError("$.forcing.kind",
                          "manufactured forcing needs a manufactured initial kind")
    out["forcing"] = {"kind": fkind}

    directory = sec["output"]["directory"]
    if not isinstance(directory, str) or not directory or "\0" in directory:
        raise SchemaError("$.output.directory",
                          "must be a non-empty string without NUL characters")
    # os.path.join drops the root for an absolute path, and .. leaves it
    if os.path.isabs(directory) or os.pardir in directory.split(os.sep):
        raise SchemaError("$.output.directory",
                          f"must be a relative path without {os.pardir!r} "
                          f"components, to stay under ${OUTPUT_ROOT_ENV}, "
                          f"got {directory!r}")
    out["output"] = {
        "directory": directory,
        "write_checkpoints": _expect(sec["output"]["write_checkpoints"],
                                     "$.output.write_checkpoints", bool),
    }
    return out


# --- scenario execution -----------------------------------------------------

def _initial_state_and_forcing(cfg: dict, grid: CylGrid, nu: float):
    kind = cfg["initial_data"]["kind"]
    params = cfg["initial_data"]["params"]
    if kind == "zero":
        return zero_state(grid), None
    if kind == "file":
        path = cfg["initial_data"]["path"]
        state = _owned("$.initial_data", read_checkpoint, path)
        if state.grid != grid:
            raise SchemaError("$.initial_data.path",
                              f"{path} holds {state.grid}, but $.grid is {grid}")
        return state, None
    sol = _owned("$.grid", mms.make_solution, kind, params, grid)
    for end in ("t_start", "t_end"):
        if not sol.finite_at(cfg["solver"][end]):
            raise SchemaError(f"$.solver.{end}",
                              f"the pressure's factor e^(-2 mu t) of "
                              f"{kind!r} is not finite there for mu = "
                              f"{sol.mu}")
    forcing = None
    if cfg["forcing"]["kind"] == "manufactured":
        forcing = mms.forcing_callable(sol, nu)
    return mms.sample_state(sol, cfg["solver"]["t_start"]), forcing


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    return "%.17g" % x


def write_diagnostics_csv(path, records, m: MonitorConfig):
    margins = margin_columns(m)
    lines = [",".join([*COLUMNS, *margins])]
    for r in records:
        vals = [_fmt(getattr(r, c)) for c in COLUMNS]
        vals += [_fmt(r.margins.get(c, math.nan)) for c in margins]
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_scenario(path) -> int:
    """Execute one scenario file; returns the process exit status.  Every
    rejection of the scenario is a SchemaError naming the path of the
    field at fault and exits 2, every I/O error exits 3, and neither
    leaves an artifact.  The one exception is a closed standard output:
    the summary lines go there only after every artifact is written, and
    outside the handlers of those errors, so the BrokenPipeError of a
    closed stdout reaches the caller (main, or sweep_cmd, which runs the
    other scenarios) with the artifacts in place."""
    try:
        code, lines = _run_scenario(path)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read or write a file: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return code


def _run_scenario(path):
    """(exit status, summary lines) of one scenario whose artifacts are
    written."""
    if not _is_regular_file(path):
        raise OSError(f"{path}: not a regular file")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        # ValueError also for undecodable text and oversized integers,
        # RecursionError for arrays or objects nested too deep
        except (ValueError, RecursionError) as exc:
            raise SchemaError("$.", f"invalid JSON: {exc}") from None
    cfg = validate_scenario(doc)
    g = build_grid(**cfg["grid"])
    sim = SimConfig(**cfg["solver"])
    exps = derive_exponents(**cfg["exponents"])
    # the monitor first: a setting it rejects (nu^3 that leaves the
    # floats, say) fails before the solution, its forcing and the solve
    mcfg = _owned("$.monitor", monitor_for, g, exps, sim.nu,
                  **cfg["monitor"])
    state, forcing = _initial_state_and_forcing(cfg, g, sim.nu)

    outdir = os.path.join(os.environ.get(OUTPUT_ROOT_ENV, "."),
                          cfg["output"]["directory"])
    # overflow in a blowing-up run is an expected outcome (a truncated
    # trajectory or record), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        diagnostics = Diagnostics(mcfg, forcing_at=forcing)
        hashes = []

        def keep(s):  # each checkpoint once: monitored, written, hashed
            diagnostics.add(s)
            if cfg["output"]["write_checkpoints"]:
                name = f"checkpoint_{len(hashes):05d}.bin"
                hashes.append(write_checkpoint(os.path.join(outdir, name), s))
            else:
                hashes.append(state_hash(s))

        # run refuses settings that break its step rules when called
        # ($.solver), the last rejection a scenario can meet: the
        # directory is created after it, so a rejected scenario writes
        # nothing
        steps = _owned("$.solver", run, sim, state, forcing_at=forcing)
        os.makedirs(outdir, exist_ok=True)
        state, dt = next(steps)
        taken = 0
        while True:  # the initial state, every stride-th and the last step
            if taken % sim.checkpoint_stride == 0:
                keep(state)
            try:
                state, dt = next(steps)
            except StopIteration as end:
                failure = end.value
                break
            taken += 1
        if taken % sim.checkpoint_stride:
            keep(state)
        records = diagnostics.records
        checks = evaluate_checks(records, mcfg, g)
        blowup = blowup_indicator(records)

    write_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"), records,
                          mcfg)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "scenario": cfg,
        "resolved": {
            "dt": dt,
            "steps": taken,
            "c_sob": mcfg.c_sob,
            "c_grow": mcfg.c_grow,
            "exponents": exps.as_dict(),
        },
        "checkpoint_hashes": hashes,
        "failed": failure is not None,
        "failure_reason": failure,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(_dumps(manifest, indent=2) + "\n")
    report = {
        "checks": checks,
        "blowup_indicator": blowup,
        "truncated": bool(failure is not None or blowup["truncated"]),
        "failure_reason": failure,
    }
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(_dumps(report, indent=2) + "\n")
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        for c in checks:
            tol = "-" if c["tolerance"] is None else _fmt(c["tolerance"])
            fh.write(f"{c['name']:<28} {c['status']:<12} "
                     f"margin={_fmt(c['margin'])} tol={tol}\n")
        if failure is not None:
            fh.write(f"trajectory truncated: {failure}\n")
        for k in sorted(blowup):
            fh.write(f"blowup.{k} = {blowup[k]}\n")

    failed_checks = [c for c in checks if c["asserted"] and c["status"] == "FAIL"]
    lines = [f"{c['name']}: {c['status']}" for c in checks]
    if failure is not None:
        lines.append(f"trajectory truncated: {failure}")
    return (0 if not failed_checks else 4), lines


# --- other subcommands ------------------------------------------------------

def check_exponents_cmd(a_text, b_text, g_text) -> int:
    a, b, gamma = map(_json_number, (a_text, b_text, g_text))
    for name, val in zip(("a", "b", "gamma"), (a, b, gamma)):
        if isinstance(val, str):  # no number, by $.exponents.b's rule
            print(f"error: {name}: malformed number {val!r}", file=sys.stderr)
            return 2
    block = {"a": a, "b": b, "gamma": gamma}
    try:
        e = derive_exponents(a, b, gamma)
    except InadmissibleExponents as exc:
        print("verdict: inadmissible")
        for v in exc.violations:
            print(f"  {v}")
        block.update(admissible=False, violations=exc.violations)
    else:
        exponents, pairs = e.as_dict(), holder_young_pairs(e)
        block.update(admissible=True, violations=[], exponents=exponents,
                     pairs=[{"name": n, "x": x, "y": y} for n, x, y in pairs])
        print("verdict: admissible")
        for key, val in exponents.items():
            print(f"  {key:<6} = {val}")
        print("  conjugate pairs (1/x + 1/y = 1):")
        for name, x, y in pairs:
            print(f"    {name:<16} ({x:.12g}, {y:.12g})")
    print(_dumps(block))
    return 0


_MMS_QUANTITY = {
    "decaying_swirl": "solver",
    "taylor_vortex_swirl": "solver",
    "rigid_rotation": "operator",
    "lopsided_curl": "lopsided_curl",
}


_ORDER_BAR = 1.9  # the order every refinement step of `mms` must reach


def mms_cmd(kind, levels, nu=0.1, outdir=None) -> int:
    if kind not in _MMS_QUANTITY:
        print(f"error: unknown kind {kind!r}; choose from "
              f"{sorted(_MMS_QUANTITY)}", file=sys.stderr)
        return 2
    if len(levels) < 3:
        print("error: need at least 3 refinement levels", file=sys.stderr)
        return 2
    sol_kind = "taylor_vortex_swirl" if kind == "lopsided_curl" else kind
    try:
        result = mms.convergence_order(
            sol_kind, [build_grid(n, n) for n in levels],
            quantity=_MMS_QUANTITY[kind], nu=nu)
    except ConfigurationError as exc:  # named as the command line spells it
        arg = "--nu" if exc.field == "nu" else "levels"
        print(f"error: {arg}: {exc}", file=sys.stderr)
        return 2
    verdict = "PASS" if all(o >= _ORDER_BAR for o in result["orders"]) else "FAIL"
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
          f"threshold {_ORDER_BAR}: {verdict}")
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
    codes = []
    for name in names:
        try:
            codes.append(run_scenario(os.path.join(directory, name)))
        except BrokenPipeError:
            # stdout has closed, after this scenario's artifacts: run the
            # rest; the lines below (or main's flush) meet the closed pipe
            # again, and main reports it once
            codes.append(3)
    for name, code in zip(names, codes):
        print(f"{name}: exit {code}")
    return 0 if all(c == 0 for c in codes) else max(codes)


# --- entry point ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that --help flushes its text and lets a
    failed write raise, so that main reports a closed stdout (argparse's
    print_help drops the error, or leaves it to the flush at exit)."""

    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def main(argv=None) -> int:
    parser = _Parser(
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

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            code = run_scenario(args.scenario)
        elif args.command == "check-exponents":
            code = check_exponents_cmd(args.a, args.b, args.gamma)
        elif args.command == "mms":
            code = mms_cmd(args.kind, args.levels, nu=args.nu,
                           outdir=args.outdir)
        else:
            code = sweep_cmd(args.directory)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader of stdout has gone; point fd 1 at devnull so that
        # the interpreter's own flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
