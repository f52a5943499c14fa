#!/usr/bin/env bash
# Smoke runs of the installed `axiswirl` entry point, shared by every CI
# job.  Scenario files and outputs go to $RUNNER_TEMP (a fresh temporary
# directory when it is unset).
#
#   bash .github/smoke.sh
set -euo pipefail
tmp="${RUNNER_TEMP:-$(mktemp -d)}"

# a strict JSON parser: each FILE must parse with no NaN, Infinity or
# -Infinity token in it
strict_json() {  # strict_json FILE...
  python3 -c '
import json, sys
def refuse(token):
    raise ValueError(f"not strict JSON: {token}")
for path in sys.argv[1:]:
    with open(path) as fh:
        json.load(fh, parse_constant=refuse)' "$@"
}

# the installed entry point: an admissible triple, one whose
# s = 2a/b + 3 rounds to 3 and one with gamma = -inf, each of which must
# be inadmissible and exit 0, and
# (40, 3, -0.5), whose printed alpha must equal a = 40 exactly (dividing
# by p - 1 gave 39.99999999999999); a solver study that must PASS, the
# first-order negative control that must FAIL, rigid rotation on 8 12 16
# cells, whose errors are 0 or rounding, which must exit 0, and four
# calls that must exit 2 (levels that do not strictly increase, --nu 0,
# --nu 1e6, whose dt = 0.1 Delta^2 / nu needs more than 10^7 steps, and
# --nu 1e-4, whose dt is beyond the solver's stability limit, both
# naming --nu)
axiswirl check-exponents 6 4 0
axiswirl check-exponents 6 6e16 0 | grep '^verdict: inadmissible$' >/dev/null
axiswirl check-exponents -- 6 4 -inf | grep '^verdict: inadmissible$' >/dev/null
axiswirl check-exponents 40 3 -0.5 | tail -n 1 | python3 -c '
import json, sys
e = json.load(sys.stdin)["exponents"]
assert e["alpha"] == e["a"] == 40.0, e'
# every JSON line of check-exponents is strict JSON, with the value
# after each triple in it: a NaN is null, and an infinity the string
# "inf" or "-inf"
while read -r a b g value; do
  axiswirl check-exponents -- "$a" "$b" "$g" | tail -n 1 > "$tmp/exponents.json"
  strict_json "$tmp/exponents.json"
  grep -qF -- "$value" "$tmp/exponents.json"
done <<'TRIPLES'
6 4 0 "admissible": true
6 6e16 0 "admissible": false
6 4 -inf "gamma": "-inf"
40 3 -0.5 "alpha": 40.0
nan 4 0 "a": null
6 inf 0 "b": "inf"
inf 4 0 "a": "inf"
TRIPLES
axiswirl mms taylor_vortex_swirl 8 16 32 | tail -n 1 | grep -q ': PASS$'
axiswirl mms lopsided_curl 8 16 32 | tail -n 1 | grep -q ': FAIL$'
code=0; axiswirl mms rigid_rotation 8 8 16 || code=$?
test "$code" -eq 2
code=0; axiswirl mms rigid_rotation 8 16 32 --nu 0 || code=$?
test "$code" -eq 2
code=0; axiswirl mms decaying_swirl 8 16 32 --nu 1e6 2> "$tmp/mms.err" || code=$?
test "$code" -eq 2
grep -q '^error: --nu:' "$tmp/mms.err"
axiswirl mms rigid_rotation 8 12 16 >/dev/null
code=0
axiswirl mms taylor_vortex_swirl 16 32 64 --nu 1e-4 2> "$tmp/mms.err" || code=$?
test "$code" -eq 2
grep -q '^error: --nu:' "$tmp/mms.err"

# a manufactured solution takes its domain from $.grid: forced Taylor
# on rho <= 3, z in [0, 0.7] must follow it and exit 0, and each asserted
# check of its report must PASS exactly when its margin is within its
# tolerance, with every Holder/Young sub-step margin positive.  Its time
# factor e^(-mu t) is finite from t_start 1.0, which must exit 0, and
# overflows at t_start -2000, which must exit 2
cat > "$tmp/wide-taylor.json" <<'JSON'
{"schema_version": 1,
 "grid": {"n_rho": 16, "n_z": 16, "rho_max": 3.0, "z_min": 0.0, "z_max": 0.7},
 "solver": {"nu": 0.1, "t_end": 0.05},
 "initial_data": {"kind": "taylor_vortex_swirl"},
 "forcing": {"kind": "manufactured"},
 "output": {"directory": "wide-taylor"}}
JSON
AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/wide-taylor.json"
python3 - "$tmp/wide-taylor/report.json" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    checks = [c for c in json.load(fh)["checks"] if c["asserted"]]
upper = ("quartic_identity", "transport_cancellation")
for c in checks:
    m, tol = c["margin"], c["tolerance"]
    within = m <= tol if c["name"] in upper else m >= -tol
    assert (c["status"] == "PASS") == within, c
subs = ("young_forcing", "holder_p", "young_eps1", "holder_s_half",
        "holder_inner", "young_eps2")
assert all(c["margin"] > 0.0 for c in checks if c["name"] in subs), checks
assert len([c for c in checks if c["name"] in subs]) == len(subs), checks
PY
for start in 1.0 -2000; do
  cat > "$tmp/late-taylor.json" <<JSON
{"schema_version": 1,
 "grid": {"n_rho": 16, "n_z": 16},
 "solver": {"nu": 0.1, "t_start": $start, "t_end": 1.05},
 "initial_data": {"kind": "taylor_vortex_swirl"},
 "forcing": {"kind": "manufactured"},
 "output": {"directory": "late-taylor"}}
JSON
  code=0; AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/late-taylor.json" || code=$?
  if [ "$start" = 1.0 ]; then test "$code" -eq 0; else test "$code" -eq 2; fi
done

# a truncation by the monitor stops neither the solver nor the writer:
# swirl growing as e^(20 t) with q = 100 overflows |u_phi|^(3q) at the
# third checkpoint, and all 11 checkpoints are still written.  It exits
# 0: the asserted quartic identity's band is relative to the size of
# its terms, so it grows with the flow
cat > "$tmp/overflowing-swirl.json" <<'JSON'
{"schema_version": 1,
 "grid": {"n_rho": 16, "n_z": 16},
 "solver": {"nu": 0.1, "t_end": 0.05, "dt": 0.005},
 "initial_data": {"kind": "taylor_vortex_swirl",
                  "params": {"swirl": 20, "swirl_z": 0, "amplitude": 0, "decay": -20}},
 "forcing": {"kind": "manufactured"},
 "monitor": {"q": 100},
 "output": {"directory": "overflowing-swirl", "write_checkpoints": true}}
JSON
AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/overflowing-swirl.json"
test "$(ls "$tmp"/overflowing-swirl/checkpoint_*.bin | wc -l)" -eq 11

# a run restarts from its last checkpoint through the writer and the
# reader: that must exit 0.  The same file with a header declaring
# float32 samples over its float64 payload, or a 4 x 4 grid over its
# 8 x 8 samples (restarted on 4 x 4 cells, so that the grids agree),
# would load as wrong data, and one without its dtype is not the
# writer's header, so each must exit 2 at $.initial_data
cat > "$tmp/checkpointed.json" <<'JSON'
{"schema_version": 1,
 "grid": {"n_rho": 8, "n_z": 8},
 "solver": {"t_end": 0.01},
 "initial_data": {"kind": "taylor_vortex_swirl"},
 "forcing": {"kind": "manufactured"},
 "output": {"directory": "checkpointed", "write_checkpoints": true}}
JSON
AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/checkpointed.json"
# the manifest's hash of each checkpoint, in order, is the sha256 of its
# payload, the bytes after the header line
diff <(for ck in "$tmp"/checkpointed/checkpoint_*.bin; do
         tail -n +2 "$ck" | sha256sum | cut -d' ' -f1
       done) \
     <(python3 -c 'import json, sys
print(*json.load(sys.stdin)["checkpoint_hashes"], sep="\n")' \
         < "$tmp/checkpointed/manifest.json")
last="$(ls "$tmp"/checkpointed/checkpoint_*.bin | tail -n 1)"
python3 - "$last" "$tmp/float32.bin" "$tmp/4x4.bin" "$tmp/no-dtype.bin" <<'PY'
import json, sys
with open(sys.argv[1], "rb") as fh:
    header, payload = fh.readline(), fh.read()
assert b'"dtype": "<f8"' in header, header
with open(sys.argv[2], "wb") as fh:
    fh.write(header.replace(b'"dtype": "<f8"', b'"dtype": "<f4"') + payload)
doc = json.loads(header)
doc["grid"].update(n_rho=4, n_z=4)
with open(sys.argv[3], "wb") as fh:
    fh.write(json.dumps(doc).encode() + b"\n" + payload)
doc = json.loads(header)
del doc["dtype"]
with open(sys.argv[4], "wb") as fh:
    fh.write(json.dumps(doc).encode() + b"\n" + payload)
PY
ckpts=("$last" "$tmp/float32.bin" "$tmp/4x4.bin" "$tmp/no-dtype.bin")
cells=(8 8 4 8)
for i in 0 1 2 3; do
  ckpt="${ckpts[$i]}"
  cat > "$tmp/restart.json" <<JSON
{"schema_version": 1,
 "grid": {"n_rho": ${cells[$i]}, "n_z": ${cells[$i]}},
 "solver": {"t_end": 0.01},
 "initial_data": {"kind": "file", "path": "$ckpt"},
 "output": {"directory": "restart"}}
JSON
  rm -rf "$tmp/restart"
  code=0
  AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/restart.json" 2> "$tmp/restart.err" || code=$?
  if [ "$ckpt" = "$last" ]; then
    test "$code" -eq 0
  else
    test "$code" -eq 2
    grep -qF 'error: $.initial_data:' "$tmp/restart.err"
  fi
done

# a rejected scenario exits 2 naming the field at fault and writes
# nothing: a cfl_safety of 0 (solver.SimConfig's rule); a c_sob of
# 1e-320, which overflows eps2, the absorption term it divides
# (monitor.MonitorConfig's rule); a dt of 0.01 at t = 1e15, where the
# float spacing is 0.125, so a step does not advance the time
# (solver.run's rule); a rho_max of 1e-300, whose spacing squared
# underflows, and one of 1e150, whose rho d_rho^2 overflows
# (grid.build_grid's rules); a b of 1e300, which rounds s = 2a/b + 3 to
# exactly 3, and a given delta above the slack 1 - gamma - 3/a, which
# would weight d(t) more strongly than the hypothesis controls
# (exponents.derive_exponents's rules); a misspelt key and a
# checkpoint path that is not a regular file (cli.validate_scenario's
# and cli.read_checkpoint's rules)
rejected() {  # rejected SECTION JSON PATH
  printf '{"schema_version": 1, "grid": {"n_rho": 8, "n_z": 8}, "%s": %s, "output": {"directory": "rejected"}}\n' \
    "$1" "$2" > "$tmp/rejected.json"
  code=0
  AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/rejected.json" 2> "$tmp/rejected.err" || code=$?
  test "$code" -eq 2
  grep -qF "error: $3:" "$tmp/rejected.err"
  test ! -e "$tmp/rejected"
}
rejected solver '{"cfl_safety": 0}' '$.solver.cfl_safety'
rejected monitor '{"c_sob": 1e-320}' '$.monitor.c_sob'
rejected solver '{"t_start": 1e15, "t_end": 1000000000000001, "dt": 0.01}' '$.solver'
rejected grid '{"n_rho": 8, "n_z": 8, "rho_max": 1e-300}' '$.grid.rho_max'
rejected grid '{"n_rho": 8, "n_z": 8, "rho_max": 1e150}' '$.grid.rho_max'
rejected exponents '{"a": 6, "b": 1e300, "gamma": 0}' '$.exponents.b'
rejected exponents '{"a": 6, "b": "inf", "gamma": 0, "delta": 1.0}' '$.exponents.delta'
rejected solver '{"cfl_saftey": 0.1}' '$.solver.cfl_saftey'
rejected initial_data '{"kind": "file", "path": "/dev/zero"}' '$.initial_data.path'

# JSON nested past the decoder's recursion limit is malformed JSON, not
# a traceback: a restart from the checkpoint above with a header line of
# 5000 nested arrays exits 2 at $.initial_data, and a scenario file of
# 100000 nested arrays exits 2 at $.
python3 - "$last" "$tmp/nested.bin" <<'PY'
import sys
with open(sys.argv[1], "rb") as fh:
    payload = fh.read().split(b"\n", 1)[1]
with open(sys.argv[2], "wb") as fh:
    fh.write(b"[" * 5000 + b"]" * 5000 + b"\n" + payload)
PY
rejected initial_data "{\"kind\": \"file\", \"path\": \"$tmp/nested.bin\"}" '$.initial_data'
python3 -c 'print("[" * 100000 + "]" * 100000)' > "$tmp/nested.json"
code=0
axiswirl run "$tmp/nested.json" 2> "$tmp/nested.err" || code=$?
test "$code" -eq 2
grep -qF 'error: $.: invalid JSON' "$tmp/nested.err"

# an output directory that would leave $AXISWIRL_OUTPUT_ROOT exits 2 and
# writes nothing, there or outside
mkdir -p "$tmp/root"
cat > "$tmp/escaping.json" <<'JSON'
{"schema_version": 1,
 "grid": {"n_rho": 8, "n_z": 8},
 "output": {"directory": "../escaped"}}
JSON
code=0
AXISWIRL_OUTPUT_ROOT="$tmp/root" axiswirl run "$tmp/escaping.json" 2> "$tmp/escaping.err" || code=$?
test "$code" -eq 2
grep -qF 'error: $.output.directory:' "$tmp/escaping.err"
test ! -e "$tmp/escaped"
test -z "$(ls -A "$tmp/root")"

# the Sobolev calibration scales its probes to the domain: the decaying
# swirl on rho_max 1e100 must exit 0.  Its zero integrands (the forcing's
# int h^4 rho^4, say) must integrate to 0 where rho^4 overflows, not to
# 0 * inf = nan, so the run must keep its records to t_end 0.01
cat > "$tmp/huge-domain.json" <<'JSON'
{"schema_version": 1,
 "grid": {"n_rho": 8, "n_z": 8, "rho_max": 1e100},
 "solver": {"t_end": 0.01},
 "initial_data": {"kind": "decaying_swirl"},
 "output": {"directory": "huge-domain"}}
JSON
AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/huge-domain.json"
python3 -c 'import json, sys
b = json.load(sys.stdin)["blowup_indicator"]
assert b["last_finite_time"] == 0.01 and b["truncated"] is False, b' \
  < "$tmp/huge-domain/report.json"

# blow-up data is no warning: a rigid rotation with omega 1e308, whose
# radial polynomial overflows, must exit 0 with nothing on stderr
cat > "$tmp/fast-rotation.json" <<'JSON'
{"schema_version": 1,
 "grid": {"n_rho": 8, "n_z": 8},
 "solver": {"t_end": 0.01},
 "initial_data": {"kind": "rigid_rotation", "params": {"omega": 1e308}},
 "output": {"directory": "fast-rotation"}}
JSON
AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/fast-rotation.json" 2> "$tmp/fast-rotation.err"
test ! -s "$tmp/fast-rotation.err"

# the supremum-in-time branch: a run with b = inf writes "inf" into its
# manifest, and the manifest's scenario block, run again as it stands
# (under another output root), writes the same diagnostics.csv
cat > "$tmp/sup-b.json" <<'JSON'
{"schema_version": 1,
 "grid": {"n_rho": 8, "n_z": 8},
 "solver": {"t_end": 0.01},
 "exponents": {"a": 6, "b": "inf", "gamma": 0.1},
 "initial_data": {"kind": "taylor_vortex_swirl"},
 "forcing": {"kind": "manufactured"},
 "output": {"directory": "sup-b"}}
JSON
AXISWIRL_OUTPUT_ROOT="$tmp" axiswirl run "$tmp/sup-b.json"
python3 -c 'import json, sys
json.dump(json.load(sys.stdin)["scenario"], sys.stdout)' \
  < "$tmp/sup-b/manifest.json" > "$tmp/sup-b-replay.json"
mkdir -p "$tmp/replay"
AXISWIRL_OUTPUT_ROOT="$tmp/replay" axiswirl run "$tmp/sup-b-replay.json"
cmp "$tmp/sup-b/diagnostics.csv" "$tmp/replay/sup-b/diagnostics.csv"

# every JSON artifact the runs above wrote is strict JSON: the manifest
# and report of eight runs, fast-rotation among them, whose report
# holds values that do not exist (null)
mapfile -t artifacts < <(find "$tmp" -name manifest.json -o -name report.json)
test "${#artifacts[@]}" -eq 16
strict_json "${artifacts[@]}"
