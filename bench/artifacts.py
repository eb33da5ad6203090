#!/usr/bin/env python3
"""Reproduce the bundled artifacts and the demo outputs, and print their SHA-256s.

Run from anywhere, with no options::

    python3 bench/artifacts.py

It runs the command line from the root of the checkout it sits in, with
default flags, in the environment that ``harness.py`` sets (that checkout's
``src`` first on ``PYTHONPATH``, BLAS on one thread):

- ``sweep`` on ``sweep_sigma_reference.json`` and
  ``sweep_kappa_reference.json``, and ``compare`` on
  ``compare_reference.json``: the files they write, into a temporary
  directory;
- ``solve`` on ``triangle``, ``reference10`` and ``frustrated10``, and
  ``oracle`` on ``reference10`` and ``frustrated10``: their standard output.
  Each graph is given as the relative path ``src/oimsim/data/<g>.graph``,
  which the output echoes;
- every script in ``demos/``: its standard output.

Every JSON text among them, each ``solve``, ``oracle`` and ``compare``
output and each sweep CSV's ``# config:`` line, must parse as strict JSON:
a ``NaN`` or ``Infinity`` token makes the script exit 1 and write nothing.
It prints one ``name sha256`` line per output, and ``ARTIFACTS_<commit>.json``
at the root of the checkout records the digests with the host record of
``harness.py``.  No digest is pinned: BLAS kernels differ across CPUs, so
compare the files of two commits taken on one host.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import ROOT, write_result

DATA = "src/oimsim/data"
FILE_OUTPUTS = {
    "sweep_sigma": ["sweep", f"{DATA}/sweep_sigma_reference.json"],
    "sweep_kappa": ["sweep", f"{DATA}/sweep_kappa_reference.json"],
    "compare": ["compare", f"{DATA}/compare_reference.json"],
}
STDOUT_OUTPUTS = {
    **{f"solve_{g}": ["solve", f"{DATA}/{g}.graph"]
       for g in ("triangle", "reference10", "frustrated10")},
    **{f"oracle_{g}": ["oracle", f"{DATA}/{g}.graph"] for g in ("reference10", "frustrated10")},
}


def run(args: list[str]) -> bytes:
    """Standard output of ``python args`` run from the checkout root."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return proc.stdout


def _refuse(token: str):
    raise ValueError(f"{token} is not a JSON number")


def check_strict_json(name: str, data: bytes) -> None:
    """Exit 1 unless the JSON text of output ``name`` parses as strict JSON:
    all of it, or for a sweep CSV its ``# config:`` line."""
    text = data.decode()
    if name in FILE_OUTPUTS and FILE_OUTPUTS[name][0] == "sweep":
        first = text.partition("\n")[0]
        if not first.startswith("# config: "):
            raise SystemExit(f"{name}: no '# config:' line")
        text = first.removeprefix("# config: ")
    try:
        json.loads(text, parse_constant=_refuse)
    except ValueError as err:
        raise SystemExit(f"{name}: not strict JSON: {err}") from err


def outputs():
    """(name, bytes) of every output, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in FILE_OUTPUTS.items():
            out = Path(tmp) / name
            run(["-m", "oimsim", *args, str(out)])
            yield name, out.read_bytes()
    for name, args in STDOUT_OUTPUTS.items():
        yield name, run(["-m", "oimsim", *args])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield f"demo_{demo.stem}", run([f"demos/{demo.name}"])


def main() -> int:
    digests = {}
    for name, data in outputs():
        if name in FILE_OUTPUTS or name in STDOUT_OUTPUTS:
            check_strict_json(name, data)
        digests[name] = hashlib.sha256(data).hexdigest()
        print(f"{name:<26} {digests[name]}", flush=True)
    write_result("ARTIFACTS", {"artifacts": digests})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
