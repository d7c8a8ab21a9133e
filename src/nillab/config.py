"""Experiment configuration: parsing, validation, and the standard baseline.

Configs are plain INI text (``key = value`` under sections).  ``FIELDS`` gives
each field's ``[section] key``, parser and formatter; a key or section that no
field declares fails, bar the retired ``[run] seed``.  ``ExperimentConfig``
holds the only defaults, which a key missing from an INI file takes (a field
without one is required).  Rotation parameters accept decimal strings or exact
dyadic strings ``n/2^k`` and are snapped to the 2**-64 grid; serialization
writes the exact dyadic form.  ``validate`` rejects a field that its INI text
does not read back equal, so ``parse(serialize(cfg)) == cfg`` holds for every
valid config, bit for bit, and its SHA-256 hash is stable across reruns.

The standard baseline uses alpha = sqrt(2) - 1 and beta = sqrt(3) - 1 (their
nearest dyadics; rational-independence surrogates), the fiber function
h = x + 0.1 sin(2 pi x), the prime pair (3, 2), a frequency-1 bump
observable, and decade checkpoints.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Callable, NamedTuple

from .dynamics import BaseFunctionSpec, JoiningSystem, SkewSystem, TrigTerm, build_joining
from .engine import OrbitSegmentPlan, check_checkpoints
from .fixedpoint import FixedReal, parse_real, sqrt_q64
from .heisenberg import check_prime_pair
from .moebius import MAX_SIEVE
from .observables import BumpProfile, Observable

KNOWN_EXPERIMENTS = (
    "correlate",
    "bilinear",
    "davenport",
    "weyl",
    "constants",
    "coboundary",
)


class IniField(NamedTuple):
    """Where one config field lives in the INI text, and how it is read and written."""

    section: str
    key: str
    parse: Callable[[str], Any]
    format: Callable[[Any], str]

    @property
    def label(self) -> str:
        return f"[{self.section}] {self.key}"

    def read(self, raw: str, label: str | None = None):
        """``raw`` parsed; a malformed value fails naming ``label`` (default ``[section] key``)."""
        try:
            return self.parse(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{label or self.label} = {raw!r} is malformed: {exc}") from None


def _csv(convert, count=None):
    """A parser of comma-separated values read by ``convert``, exactly ``count`` if given."""

    def parse(text: str) -> tuple:
        values = tuple(convert(v) for v in text.split(","))
        if count is not None and len(values) != count:
            raise ValueError(f"needs {count} comma-separated values")
        return values

    return parse


def _entries(convert):
    """A parser of ``;``-separated entries, each read by ``convert``."""
    return lambda text: tuple(convert(c) for c in text.split(";") if c.strip())


def _term(text: str) -> TrigTerm:
    k1, k2, amp, phase = text.split(",")
    return TrigTerm(int(k1), int(k2), float(amp), float(phase))


def _directory(text: str) -> str:
    if not text:
        raise ValueError("names no directory")
    return text


def _commas(values) -> str:
    return ",".join(map(str, values))


# config field -> its INI declaration, in the order ``to_ini`` writes them
FIELDS = {
    "alpha": IniField("system", "alpha", parse_real, FixedReal.dyadic_str),
    "beta": IniField("system", "beta", parse_real, FixedReal.dyadic_str),
    "d1": IniField("system", "d1", int, str),
    "d2": IniField("system", "d2", int, str),
    "terms": IniField("system", "terms", _entries(_term), lambda terms: "; ".join(
        f"{t.k1},{t.k2},{t.amplitude!r},{t.phase!r}" for t in terms)),
    "p": IniField("joining", "p", int, str),
    "q": IniField("joining", "q", int, str),
    "xi": IniField("observable", "xi", int, str),
    "bump_center": IniField("observable", "bump_center", _csv(float, 2), _commas),
    "bump_radius": IniField("observable", "bump_radius", float, repr),
    "base_mode": IniField("observable", "base_mode", _csv(int, 2), _commas),
    "checkpoints": IniField("run", "checkpoints", _csv(int), _commas),
    "sieve_bound": IniField("run", "sieve_bound", int, str),
    "segment_size": IniField("run", "segment_size", int, str),
    "workers": IniField("run", "workers", int, str),
    "out_dir": IniField("run", "out", _directory, str),
    "experiments": IniField("run", "experiments", _csv(str.strip), _commas),
    "weyl_freqs": IniField("weyl", "freqs", _entries(_csv(int)), lambda freqs: "; ".join(
        map(_commas, freqs))),
    "coboundary_k": IniField("coboundary", "k", int, str),
    "coboundary_cutoff": IniField("coboundary", "cutoff", int, str),
}


@dataclass(frozen=True, kw_only=True)
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
    checkpoints: tuple[int, ...]
    sieve_bound: int
    segment_size: int = 1 << 16
    workers: int = 1
    out_dir: str = "runs/out"
    experiments: tuple[str, ...] = KNOWN_EXPERIMENTS
    weyl_freqs: tuple[tuple[int, int, int], ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2))
    coboundary_k: int = 1
    coboundary_cutoff: int = 16

    def validate(self) -> "ExperimentConfig":
        for name, f in FIELDS.items():
            value = getattr(self, name)
            try:
                if f.read(f.format(value)) == value:
                    continue
            except (AttributeError, TypeError, ValueError):
                pass
            raise ValueError(f"{f.label} = {value!r} does not read back from its INI text")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{FIELDS[name].label} = {value!r} must lie in [0, 1)")
        try:
            self.base_function()
        except ValueError as exc:
            raise ValueError(f"{FIELDS['terms'].label}: {exc}") from None
        check_prime_pair(self.p, self.q)
        if not 1 <= self.sieve_bound <= MAX_SIEVE:
            raise ValueError(f"[run] sieve_bound = {self.sieve_bound} is not in [1, {MAX_SIEVE}]")
        cps = check_checkpoints(self.checkpoints, self.sieve_bound)
        try:
            self.plan(cps[-1])  # checks segment_size and workers
        except ValueError as exc:
            raise ValueError(f"[run] {exc}") from None
        unknown = [e for e in self.experiments if e not in KNOWN_EXPERIMENTS]
        if unknown:
            raise ValueError(f"[run] experiments has unknown entries {unknown}")
        if not self.weyl_freqs or not all(len(f) == 3 and any(f) for f in self.weyl_freqs):
            raise ValueError(f"[weyl] freqs = {self.weyl_freqs} must list nonzero triples")
        repeated = sorted({f for f in self.weyl_freqs if self.weyl_freqs.count(f) > 1})
        if repeated:
            raise ValueError(f"[weyl] freqs = {self.weyl_freqs} repeats {repeated}")
        for name in ("coboundary_k", "coboundary_cutoff"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{FIELDS[name].label} = {value!r} must be >= 1")
        try:
            self.observable()  # validates bump geometry / mode choice
        except ValueError as exc:
            raise ValueError(
                f"[observable] bump_center = {self.bump_center}, "
                f"bump_radius = {self.bump_radius!r}: {exc}"
            ) from None
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
        for name, f in FIELDS.items():
            cp.read_dict({f.section: {f.key: f.format(getattr(self, name))}})
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
    declared = {(f.section, f.key) for f in FIELDS.values()} | {("run", "seed")}  # seed is retired
    sections = {section for section, _ in declared} | {cp.default_section}
    for section in [cp.default_section, *cp.sections()]:  # no field lives in [DEFAULT]
        undeclared = [key for key in cp[section] if (section, key) not in declared]
        if undeclared or section not in sections:
            raise ValueError(f"config: no field declares [{section}] {', '.join(undeclared)}")
    values = {}
    for field in fields(ExperimentConfig):
        ini = FIELDS[field.name]
        if cp.has_option(ini.section, ini.key):
            values[field.name] = ini.read(cp.get(ini.section, ini.key))
        elif field.default is MISSING:
            raise ValueError(f"config missing [{ini.section}] {ini.key}")
    return ExperimentConfig(**values).validate()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def standard_config(**overrides) -> ExperimentConfig:
    """The in-repo baseline every report references."""
    base = ExperimentConfig(
        alpha=sqrt_q64(2) - 1,
        beta=sqrt_q64(3) - 1,
        terms=(TrigTerm(1, 0, 0.1, 0.0),),
        checkpoints=(10**3, 10**4, 10**5, 10**6, 10**7),
        sieve_bound=10**7,
        out_dir="runs/standard",
    )
    return replace(base, **overrides).validate()


# -- soft decay thresholds (recorded in every run manifest) -------------------

SOFT_THRESHOLDS = {
    "correlation_final_max": 0.05,
    "correlation_decay_ratio": 0.5,
    "davenport_1e6_max": 0.01,
    "weyl_1e6_max": 0.05,
}
