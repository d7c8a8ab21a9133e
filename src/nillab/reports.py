"""Byte-stable report serialization: CSV tables plus JSON sidecars.

Every float is written with 17 significant digits so a rerun of the same
configuration reproduces each report byte for byte; timestamps live only in
the run manifest, never in report files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .diagnostics import WeylReport
from .moebius import CorrelationReport


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def write_correlation_csv(path, report: CorrelationReport) -> None:
    lines = ["N,re,im,modulus"]
    for c in report.checkpoints:
        lines.append(
            f"{c.n},{fmt17(c.value.real)},{fmt17(c.value.imag)},{fmt17(c.modulus)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_weyl_csv(path, reports: list[WeylReport]) -> None:
    lines = ["k1,k2,k3,N,re,im,modulus"]
    for rep in reports:
        k1, k2, k3 = rep.freq
        for c in rep.checkpoints:
            lines.append(
                f"{k1},{k2},{k3},{c.n},{fmt17(c.value.real)},"
                f"{fmt17(c.value.imag)},{fmt17(c.modulus)}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_orbit_csv(path, rows) -> None:
    """Rows of (n, x, y, z) orbit samples."""
    lines = ["n,x,y,z"]
    for n, x, y, z in rows:
        lines.append(f"{n},{fmt17(x)},{fmt17(y)},{fmt17(z)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


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
