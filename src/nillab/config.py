"""Experiment configuration: parsing, validation, and the standard baseline.

Configs are plain INI text (``key = value`` under sections).  Rotation
parameters accept decimal strings or exact dyadic strings ``n/2^k`` and are
snapped to the 2**-64 grid; serialization always writes the exact dyadic
form, so ``parse(serialize(cfg))`` reproduces the configuration bit for bit
and its SHA-256 hash is stable across reruns.

The standard baseline uses alpha = sqrt(2) - 1 and beta = sqrt(3) - 1 (their
nearest dyadics; rational-independence surrogates), the fiber function
h = x + 0.1 sin(2 pi x), the prime pair (3, 2), a frequency-1 bump
observable, and decade checkpoints.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, replace

from .dynamics import BaseFunctionSpec, JoiningSystem, SkewSystem, TrigTerm, build_joining
from .engine import OrbitSegmentPlan
from .fixedpoint import FixedReal, parse_real, sqrt_q64
from .heisenberg import check_prime_pair
from .observables import BumpProfile, Observable

KNOWN_EXPERIMENTS = (
    "correlate",
    "bilinear",
    "davenport",
    "weyl",
    "constants",
    "coboundary",
)


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: FixedReal
    beta: FixedReal
    d1: int = 1
    d2: int = 0
    terms: tuple[TrigTerm, ...] = ()
    p: int = 3
    q: int = 2
    xi: int = 1
    bump_center: tuple[float, float] = (0.5, 0.5)
    bump_radius: float = 0.25
    base_mode: tuple[int, int] = (0, 0)
    checkpoints: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6, 10**7)
    sieve_bound: int = 10**7
    segment_size: int = 1 << 16
    workers: int = 1
    out_dir: str = "runs/out"
    experiments: tuple[str, ...] = KNOWN_EXPERIMENTS
    weyl_freqs: tuple[tuple[int, int, int], ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2))
    coboundary_k: int = 1
    coboundary_cutoff: int = 16

    def validate(self) -> "ExperimentConfig":
        check_prime_pair(self.p, self.q)
        cps = list(self.checkpoints)
        if not cps or cps != sorted(set(cps)) or cps[0] < 1:
            raise ValueError("checkpoints must be strictly increasing positive integers")
        if cps[-1] > self.sieve_bound:
            raise ValueError(
                f"max checkpoint {cps[-1]} exceeds sieve bound {self.sieve_bound}"
            )
        s = self.segment_size
        if s < 1 or s & (s - 1):
            raise ValueError("segment_size must be a power of two")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        unknown = set(self.experiments) - set(KNOWN_EXPERIMENTS)
        if unknown:
            raise ValueError(f"unknown experiments: {sorted(unknown)}")
        for f in self.weyl_freqs:
            if len(f) != 3 or not all(isinstance(k, int) for k in f) or not any(f):
                raise ValueError(f"[weyl] freqs entry {f} is not a nonzero integer triple")
        self.observable()  # validates bump geometry / mode choice
        return self

    # -- builders ------------------------------------------------------------

    def base_function(self) -> BaseFunctionSpec:
        return BaseFunctionSpec(self.d1, self.d2, self.terms)

    def system(self) -> SkewSystem:
        return SkewSystem(self.alpha, self.beta, self.base_function())

    def joining(self) -> JoiningSystem:
        return build_joining(self.system(), self.p, self.q)

    def observable(self) -> Observable:
        if self.xi == 0:
            return Observable(xi=0, base_mode=self.base_mode)
        return Observable(
            xi=self.xi, bump=BumpProfile(self.bump_center, self.bump_radius)
        )

    def plan(self, n_total: int) -> OrbitSegmentPlan:
        return OrbitSegmentPlan(n_total, self.segment_size, self.workers)

    # -- serialization --------------------------------------------------------

    def to_ini(self) -> str:
        cp = configparser.ConfigParser()
        cp["system"] = {
            "alpha": self.alpha.dyadic_str(),
            "beta": self.beta.dyadic_str(),
            "d1": str(self.d1),
            "d2": str(self.d2),
            "terms": "; ".join(
                f"{t.k1},{t.k2},{t.amplitude!r},{t.phase!r}" for t in self.terms
            ),
        }
        cp["joining"] = {"p": str(self.p), "q": str(self.q)}
        cp["observable"] = {
            "xi": str(self.xi),
            "bump_center": f"{self.bump_center[0]!r},{self.bump_center[1]!r}",
            "bump_radius": repr(self.bump_radius),
            "base_mode": f"{self.base_mode[0]},{self.base_mode[1]}",
        }
        cp["run"] = {
            "checkpoints": ",".join(str(c) for c in self.checkpoints),
            "sieve_bound": str(self.sieve_bound),
            "segment_size": str(self.segment_size),
            "workers": str(self.workers),
            "out": self.out_dir,
            "experiments": ",".join(self.experiments),
        }
        cp["weyl"] = {
            "freqs": "; ".join(f"{k1},{k2},{k3}" for k1, k2, k3 in self.weyl_freqs)
        }
        cp["coboundary"] = {
            "k": str(self.coboundary_k),
            "cutoff": str(self.coboundary_cutoff),
        }
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_ini().encode("utf-8")).hexdigest()


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _entries(convert):
    """A parser of ``;``-separated entries, each read by ``convert``."""
    return lambda text: tuple(convert(c) for c in text.split(";") if c.strip())


def _term(text: str) -> TrigTerm:
    k1, k2, amp, phase = text.split(",")
    return TrigTerm(int(k1), int(k2), float(amp), float(phase))


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from exc

    def field(section, key, convert, default=None, arity=None):
        """[section] key (or ``default``) read by ``convert``; a malformed
        value, or a tuple of other than ``arity`` values, names the field."""
        if cp.has_option(section, key):
            raw = cp.get(section, key)
        elif default is None:
            raise ValueError(f"config missing [{section}] {key}")
        else:
            raw = default
        try:
            value = convert(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"[{section}] {key} = {raw!r} is malformed: {exc}") from None
        if arity is not None and len(value) != arity:
            raise ValueError(f"[{section}] {key} = {raw!r} needs {arity} comma-separated values")
        return value

    cfg = ExperimentConfig(
        alpha=field("system", "alpha", parse_real),
        beta=field("system", "beta", parse_real),
        d1=field("system", "d1", int, "1"),
        d2=field("system", "d2", int, "0"),
        terms=field("system", "terms", _entries(_term), ""),
        p=field("joining", "p", int, "3"),
        q=field("joining", "q", int, "2"),
        xi=field("observable", "xi", int, "1"),
        bump_center=field("observable", "bump_center", _floats, "0.5,0.5", arity=2),
        bump_radius=field("observable", "bump_radius", float, "0.25"),
        base_mode=field("observable", "base_mode", _ints, "0,0", arity=2),
        checkpoints=field("run", "checkpoints", _ints),
        sieve_bound=field("run", "sieve_bound", int),
        segment_size=field("run", "segment_size", int, str(1 << 16)),
        workers=field("run", "workers", int, "1"),
        out_dir=field("run", "out", str, "runs/out"),
        experiments=field(
            "run", "experiments", lambda v: tuple(e.strip() for e in v.split(",")),
            ",".join(KNOWN_EXPERIMENTS),
        ),
        weyl_freqs=field("weyl", "freqs", _entries(_ints), "1,0,0"),
        coboundary_k=field("coboundary", "k", int, "1"),
        coboundary_cutoff=field("coboundary", "cutoff", int, "16"),
    )
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def standard_config(**overrides) -> ExperimentConfig:
    """The in-repo baseline every report references."""
    cfg = ExperimentConfig(
        alpha=sqrt_q64(2) - 1,
        beta=sqrt_q64(3) - 1,
        d1=1,
        d2=0,
        terms=(TrigTerm(1, 0, 0.1, 0.0),),
        p=3,
        q=2,
        xi=1,
        checkpoints=(10**3, 10**4, 10**5, 10**6, 10**7),
        sieve_bound=10**7,
        out_dir="runs/standard",
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


# -- soft decay thresholds (recorded in every run manifest) -------------------

SOFT_THRESHOLDS = {
    "correlation_final_max": 0.05,
    "correlation_decay_ratio": 0.5,
    "davenport_1e6_max": 0.01,
    "weyl_1e6_max": 0.05,
}
