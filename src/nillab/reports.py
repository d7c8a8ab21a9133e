"""Byte-stable report serialization: CSV tables plus JSON sidecars.

Every float is written with 17 significant digits so a rerun of the same
configuration reproduces each report byte for byte; timestamps live only in
the run manifest, never in report files.  Each file is written to a temp file
in its own directory and then moved into place with ``os.replace``, so a
write that fails part way leaves the previous file as it was.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain
from pathlib import Path

from .diagnostics import WeylReport
from .moebius import CorrelationReport


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path, lines) -> None:
    """The strings ``lines``, each ended by a newline, written atomically to ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_correlation_csv(path, report: CorrelationReport) -> None:
    _write_lines(path, chain(["N,re,im,modulus"], (
        f"{c.n},{fmt17(c.value.real)},{fmt17(c.value.imag)},{fmt17(c.modulus)}"
        for c in report.checkpoints
    )))


def write_weyl_csv(path, reports: list[WeylReport]) -> None:
    _write_lines(path, chain(["k1,k2,k3,N,re,im,modulus"], (
        f"{','.join(map(str, rep.freq))},{c.n},{fmt17(c.value.real)},{fmt17(c.value.imag)},"
        f"{fmt17(c.modulus)}"
        for rep in reports
        for c in rep.checkpoints
    )))


def write_orbit_csv(path, rows) -> None:
    """Rows of (n, x, y, z) orbit samples."""
    _write_lines(path, chain(["n,x,y,z"], (
        f"{n},{fmt17(x)},{fmt17(y)},{fmt17(z)}" for n, x, y, z in rows
    )))


def write_json(path, payload: dict) -> None:
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


def correlation_sidecar(report: CorrelationReport) -> dict:
    return {
        "metadata": report.metadata,
        "checkpoints": [
            {"N": c.n, "re": c.value.real, "im": c.value.imag, "modulus": c.modulus}
            for c in report.checkpoints
        ],
    }


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
