"""Seeded inputs for the benchmark workloads.

Only generated INI text and plain arrays reach nillab.  Seed 0 reproduces
``configs/standard.ini`` byte for byte; any other seed replaces ``alpha`` and
``beta`` with 64-bit dyadics drawn from the seed.  Workloads that need other
run settings (worker count, sieve bound, checkpoints) rewrite those lines of
the same text, so every workload starts from the shipped configuration.
"""

from __future__ import annotations

import re
import zlib
from pathlib import Path

import numpy as np


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose), stable across runs."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def draw_dyadics(seed: int) -> tuple[str, str]:
    """alpha and beta as exact ``n/2^64`` strings in (0, 1)."""
    a, b = rng_for(seed, "system").integers(1, 2**64, size=2, dtype=np.uint64, endpoint=False)
    return f"{int(a)}/2^64", f"{int(b)}/2^64"


def _set_line(text: str, key: str, value: str) -> str:
    pattern = re.compile(rf"^{re.escape(key)} = .*$", re.MULTILINE)
    if len(pattern.findall(text)) != 1:
        raise ValueError(f"standard config has no single '{key}' line")
    return pattern.sub(lambda _: f"{key} = {value}", text)


def config_text(root: Path, seed: int, **run_settings) -> str:
    """The workload's INI text: the standard config, reseeded and adjusted."""
    text = (root / "configs" / "standard.ini").read_text(encoding="utf-8")
    if seed != 0:
        alpha, beta = draw_dyadics(seed)
        text = _set_line(text, "alpha", alpha)
        text = _set_line(text, "beta", beta)
    for key, value in run_settings.items():
        text = _set_line(text, key, str(value))
    return text


def algebra_batch(rng: np.random.Generator, count: int):
    """Raw integers for ``count`` exact-algebra instances of one group law:

    nine Q64 coordinates (a fractional word plus a small integer part) for
    three group elements, and six small integers for two lattice points.
    """
    fracs = rng.integers(0, 2**64 - 1, size=(count, 9), dtype=np.uint64, endpoint=True)
    ints = rng.integers(-4, 4, size=(count, 9))
    lattice = rng.integers(-5, 6, size=(count, 6))
    return fracs.tolist(), ints.tolist(), lattice.tolist()
