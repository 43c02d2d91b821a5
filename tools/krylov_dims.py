"""The chosen Fock truncation of every scan point and the Krylov dimensions
behind it, in two source trees.

    python3 tools/krylov_dims.py --parent DIR --change DIR [--preset P ...]
        [--config PATH ...] [--workload W ...] [--seed N]
        [--override KEY=VALUE ...]

DIR is the root of a source tree (a checkout or an unpacked ``git
archive``). The inputs are those of ``tools/data_diff.py``: each
``--preset`` runs as ``scan --preset P``, each ``--config`` as ``scan
--config PATH``, and each ``--workload`` as the spectrum invocations of
one repetition of that ``perfbench`` workload at ``--seed``, generated by
the change tree's ``perfbench/workloads.py``. ``--override`` is passed to
every run. Each input runs in one subprocess per tree, serially, with
``PYTHONPATH=DIR/src``: the subprocess calls ``spinbus.cli.main``
in-process with ``sweeps.compute_point_spectrum`` and
``spectrum.SectorProblem._krylov_values`` wrapped, and records the
``n_fock`` of every scan point and the Krylov dimension m of every
projection (every ``_krylov_values`` call, truncation probes and final
spectra alike).

Per input and tree the script prints the chosen ``n_fock`` of every scan
point, the sum of m and the number of projections. The exit status is 1
when any scan point's ``n_fock`` differs between the trees and 0
otherwise. Only the standard library is used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from data_diff import _redirect, input_parser, inputs  # noqa: E402

# Run in each tree: argv[1] is a JSON list of CLI argv lists, argv[2] the
# file the records are written to.
_CHILD = """\
import json, sys
from spinbus import cli, spectrum, sweeps

points, dims = [], []
compute = sweeps.compute_point_spectrum
krylov_values = spectrum.SectorProblem._krylov_values

def recording_compute(cfg, axis_name, value):
    spec, report = compute(cfg, axis_name, value)
    points.append([axis_name, value, spec.metadata["n_fock"]])
    return spec, report

def recording_krylov_values(self, *args, **kwargs):
    out = krylov_values(self, *args, **kwargs)
    dims.append(out[1])
    return out

sweeps.compute_point_spectrum = recording_compute
spectrum.SectorProblem._krylov_values = recording_krylov_values
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        raise SystemExit("spinbus " + " ".join(argv) + " failed")
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump({"points": points, "dims": dims}, fh)
"""


def run_tree(tree: str, invocations: list[list[str]], out_dir: str,
             overrides: list[str]) -> dict:
    """The (axis, value, n_fock) of every scan point and the m of every
    projection of the invocations, run serially in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    os.makedirs(out_dir)
    extra = [arg for ov in overrides for arg in ("--override", ov)]
    argvs = [_redirect(argv, out_dir, 1) + extra for argv in invocations]
    records = os.path.join(out_dir, "records.json")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs), records],
        cwd=out_dir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"krylov_dims: a run failed in {tree}")
    with open(records, encoding="utf-8") as fh:
        return json.load(fh)


def describe(label: str, side: str, record: dict) -> str:
    points = ", ".join(f"{axis}={value:g}: {n_fock}"
                       for axis, value, n_fock in record["points"])
    dims = record["dims"]
    return (f"{label} {side}: n_fock [{points}]; sum m {sum(dims)} over "
            f"{len(dims)} projections")


def dims_run(label: str, invocations: list[list[str]], args,
             work: str) -> bool:
    """Runs the invocations in both trees, prints one line per tree and
    returns whether any scan point's n_fock differs."""
    work = tempfile.mkdtemp(dir=work)   # a label may repeat or be a path
    records = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        records[side] = run_tree(os.path.abspath(tree), invocations,
                                 os.path.join(work, side), args.override)
        print(describe(label, side, records[side]))
    differs = records["parent"]["points"] != records["change"]["points"]
    if differs:
        print(f"{label}: n_fock differs")
    return differs


def main(argv: list[str] | None = None) -> int:
    args = input_parser(__doc__.splitlines()[0]).parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory() as work:
        for label, invocations in inputs(args, [["--out", "out.csv"]], work):
            differs |= dims_run(label, invocations, args, work)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
