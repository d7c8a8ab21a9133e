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
from .heisenberg import is_prime
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
        if not (is_prime(self.p) and is_prime(self.q) and self.p > self.q):
            raise ValueError(f"need primes p > q, got p={self.p}, q={self.q}")
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


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from exc

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        if default is None:
            raise ValueError(f"config missing [{section}] {key}")
        return default

    terms = []
    for chunk in get("system", "terms", "").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            k1, k2, amp, phase = (v.strip() for v in chunk.split(","))
            terms.append(TrigTerm(int(k1), int(k2), float(amp), float(phase)))
        except ValueError:
            raise ValueError(f"[system] terms entry {chunk!r} is not k1,k2,amplitude,phase") from None
    center = tuple(float(v) for v in get("observable", "bump_center", "0.5,0.5").split(","))
    mode = tuple(int(v) for v in get("observable", "base_mode", "0,0").split(","))
    freqs = []
    for chunk in get("weyl", "freqs", "1,0,0").split(";"):
        chunk = chunk.strip()
        if chunk:
            try:
                freqs.append(tuple(int(v) for v in chunk.split(",")))
            except ValueError:
                raise ValueError(f"[weyl] freqs entry {chunk!r} is not an integer triple") from None
    cfg = ExperimentConfig(
        alpha=parse_real(get("system", "alpha")),
        beta=parse_real(get("system", "beta")),
        d1=int(get("system", "d1", "1")),
        d2=int(get("system", "d2", "0")),
        terms=tuple(terms),
        p=int(get("joining", "p", "3")),
        q=int(get("joining", "q", "2")),
        xi=int(get("observable", "xi", "1")),
        bump_center=center,
        bump_radius=float(get("observable", "bump_radius", "0.25")),
        base_mode=mode,
        checkpoints=tuple(int(v) for v in get("run", "checkpoints").split(",")),
        sieve_bound=int(get("run", "sieve_bound")),
        segment_size=int(get("run", "segment_size", str(1 << 16))),
        workers=int(get("run", "workers", "1")),
        out_dir=get("run", "out", "runs/out"),
        experiments=tuple(
            v.strip() for v in get("run", "experiments", ",".join(KNOWN_EXPERIMENTS)).split(",")
        ),
        weyl_freqs=tuple(freqs),
        coboundary_k=int(get("coboundary", "k", "1")),
        coboundary_cutoff=int(get("coboundary", "cutoff", "16")),
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
