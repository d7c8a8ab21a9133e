"""The four benchmark workloads.

Each workload loads its generated config (``prepare``), repeats one unit of
measured work (``rep``) and checks the outputs outside the timed region
(``check_rep`` after every repetition, ``final_checks`` once at the end).
Checks are counted in a :class:`Checks`; its failed share is the workload's
``failed_share``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from inputs import algebra_batch, config_text, rng_for

HERE = Path(__file__).resolve().parent
MERTENS = {10**3: 2, 10**4: -23, 10**5: -48, 10**6: 212, 10**7: 1037, 10**8: 1928}


@dataclasses.dataclass
class Rep:
    """One repetition: its wall time, the work items it did, and the time
    spent on those items (the denominator of the workload's rate)."""

    wall: float
    work: float
    work_time: float


class Checks:
    """Correctness checks attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name: str, ok: bool):
        self.tally(name, int(bool(ok)), 1)

    def tally(self, name: str, passed: int, total: int):
        self.attempted += total
        self.failed.extend([name] * (total - passed))


def mu_by_trial_division(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1 if d == 2 else 2
    return -result if n > 1 else result


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_value(path: Path, **key) -> complex:
    """The (re, im) value of the CSV row whose columns match ``key``."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if all(row[k] == str(v) for k, v in key.items()):
                return complex(float(row["re"]), float(row["im"]))
    raise KeyError(f"no row {key} in {path.name}")


class Workload:
    name = ""
    rate_name = ""  # the workload's own name for work_per_s
    run_settings: dict = {}

    def __init__(self, nl, root: Path, out: Path, seed: int):
        self.nl = nl
        self.root = root
        self.out = out
        self.seed = seed
        self.ini = out / "config.ini"

    def write_config(self) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        self.ini.write_text(config_text(self.root, self.seed, **self.run_settings), encoding="utf-8")
        return self.ini

    def prepare(self):
        self.cfg = self.nl.config.load_config(self.ini)
        self.system = self.cfg.system()
        self.joining = self.cfg.joining()
        self.observable = self.cfg.observable()

    def rep(self, stream_time) -> Rep:
        raise NotImplementedError

    def check_rep(self, checks: Checks):
        pass

    def final_checks(self, checks: Checks):
        pass


class StandardRun(Workload):
    """In-process ``nillab run`` on the standard config, one worker."""

    name = "standard-run"
    rate_name = "orbit_steps_per_s"

    def prepare(self):
        super().prepare()
        self.run_dir = self.out / "run"

    def rep(self, stream_time) -> Rep:
        argv = ["run", "--config", str(self.ini), "--out", str(self.run_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.nl.cli.main(argv)
            wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"nillab run exited with {code}")
        seconds, steps = stream_time()
        return Rep(wall, steps, seconds)

    def final_checks(self, checks):
        E, M = self.nl.engine, self.nl.moebius
        run = self.run_dir
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        digests = {f["name"]: f["sha256"] for f in manifest["files"]}
        for name, digest in digests.items():
            checks.add(f"manifest sha256 {name}", _sha256(run / name) == digest)
        if self.seed == 0:
            expected = json.loads((HERE / "expected_seed0.json").read_text(encoding="utf-8"))
            checks.add("seed-0 report set", sorted(expected) == sorted(digests))
            for name, digest in expected.items():
                checks.add(f"seed-0 sha256 {name}", digests.get(name) == digest)

        n = 1000
        cfg, sys_, obs, js = self.cfg, self.system, self.observable, self.joining
        table = M.sieve_mobius(n)
        naive = E.orbit_stream_naive(sys_, None, n, obs, table.mu_slice, [n])[0][1] / n
        checks.add("correlate N=1000 bit-equal to naive",
                   _csv_value(run / "correlation.csv", N=n) == naive)
        for k1, k2, k3 in cfg.weyl_freqs:
            # the same expression diagnostics.weyl_sums streams
            def mode(x, y, z, _n, k1=k1, k2=k2, k3=k3):
                return np.exp(2j * math.pi * (k1 * x + k2 * y + k3 * z))

            naive = E.orbit_stream_naive(js, None, n, mode, None, [n])[0][1] / n
            got = _csv_value(run / "weyl.csv", k1=k1, k2=k2, k3=k3, N=n)
            checks.add(f"weyl {(k1, k2, k3)} N=1000 bit-equal to naive", got == naive)

        reduced = M.bilinear_sum_reduced(sys_, obs, cfg.p, cfg.q, [n]).value_at(n)
        pair = _csv_value(run / "bilinear.csv", N=n)
        checks.add("bilinear pair route N=1000 within 1e-9 of reduced route",
                   abs(pair - reduced) <= 1e-9)

        a = cfg.alpha.frac().frac_u64()
        re_terms, im_terms = [], []
        for k in range(1, n + 1):
            mu = mu_by_trial_division(k)
            if mu:
                angle = 2.0 * math.pi * (((k * a) & ((1 << 64) - 1)) * 2.0**-64)
                re_terms.append(mu * math.cos(angle))
                im_terms.append(mu * math.sin(angle))
        direct = complex(math.fsum(re_terms), math.fsum(im_terms)) / n
        got = _csv_value(run / "davenport.csv", N=n)
        checks.add("davenport N=1000 within 1e-12 of a direct sum",
                   abs(got - direct) <= 1e-12)


class TwoRouteParallel(Workload):
    """The (p, q) bilinear average to 1e7 by both routes, two worker threads."""

    name = "two-route-parallel"
    rate_name = "orbit_steps_per_s"
    run_settings = {"workers": 2}
    first = None  # the first repetition's sums, which every later one must equal

    def solve(self, cfg):
        M = self.nl.moebius
        cps = list(cfg.checkpoints)
        pair = M.bilinear_sum(self.system, self.observable, None, cfg.p, cfg.q, cps,
                              cfg.plan(cfg.p * cps[-1]))
        reduced = M.bilinear_sum_reduced(self.system, self.observable, cfg.p, cfg.q, cps,
                                         cfg.plan(cps[-1]))
        return ([c.value for c in pair.checkpoints], [c.value for c in reduced.checkpoints])

    def rep(self, stream_time) -> Rep:
        t0 = time.perf_counter()
        self.values = self.solve(self.cfg)
        wall = time.perf_counter() - t0
        seconds, steps = stream_time()
        return Rep(wall, steps, seconds)

    def check_rep(self, checks):
        if self.first is None:
            self.first = self.values
        else:
            checks.add("repetition reproduces the first bit for bit",
                       self.values == self.first)

    def final_checks(self, checks):
        pair, reduced = self.values
        for n, a, b in zip(self.cfg.checkpoints, pair, reduced):
            checks.add(f"two routes agree within 1e-9 at N={n}", abs(a - b) <= 1e-9)

    def one_worker(self, checks) -> float:
        """Wall time of the same problem on one worker; its sums must be
        bit-identical to the two-worker sums."""
        cfg = dataclasses.replace(self.cfg, workers=1)
        t0 = time.perf_counter()
        values = self.solve(cfg)
        wall = time.perf_counter() - t0
        for route, a, b in zip(("pair", "reduced"), values, self.first):
            for n, x, y in zip(cfg.checkpoints, a, b):
                checks.add(f"{route} route N={n}: 1 and 2 workers bit-identical", x == y)
        return wall


class Sieve1e8(Workload):
    """sieve_mobius(10**8), Mertens at every decade, a 2^16-window mu sweep."""

    name = "sieve-1e8"
    rate_name = "sieve_ints_per_s"
    run_settings = {
        "sieve_bound": 10**8,
        "checkpoints": ",".join(str(10**k) for k in range(3, 9)),
    }
    window = 1 << 16
    samples = 500

    def prepare(self):
        super().prepare()
        self.table = None

    def rep(self, stream_time) -> Rep:
        M = self.nl.moebius
        bound = self.cfg.sieve_bound
        self.table = None  # never hold two tables at once
        t0 = time.perf_counter()
        table = M.sieve_mobius(bound)
        t1 = time.perf_counter()
        self.mertens = [table.mertens(n) for n in self.cfg.checkpoints]
        sweep = 0
        for lo in range(1, bound + 1, self.window):
            sweep += int(table.mu_slice(lo, min(lo + self.window, bound + 1)).sum(dtype=np.int64))
        wall = time.perf_counter() - t0
        self.table, self.sweep = table, sweep
        return Rep(wall, bound, t1 - t0)

    def final_checks(self, checks):
        for n, m in zip(self.cfg.checkpoints, self.mertens):
            checks.add(f"M({n}) = {MERTENS[n]}", m == MERTENS[n])
        checks.add("window sweep sums to M(bound)", self.sweep == self.mertens[-1])
        bound = self.cfg.sieve_bound
        sample = rng_for(self.seed, "sieve").integers(1, bound, size=self.samples, endpoint=True)
        for n in [1, bound] + sample.tolist():
            checks.add(f"mu({n}) by trial division", self.table.mu(n) == mu_by_trial_division(n))


class ExactAlgebra(Workload):
    """Criterion-1 style identities on seeded elements, plus exact stepping."""

    name = "exact-algebra"
    rate_name = "algebra_ops_per_s"
    per_law = 2000
    starts = 8
    steps = 96
    # mul x7, inv, to_group x2, canonical_rep x2 per instance
    ops_per_instance = 12

    def prepare(self):
        super().prepare()
        H = self.nl.heisenberg
        self.laws = (H.HEISENBERG, H.GroupLaw.star(self.cfg.p, self.cfg.q))
        self.rng = rng_for(self.seed, "algebra")

    def _inputs(self):
        batches = [algebra_batch(self.rng, self.per_law) for _ in self.laws]
        starts = algebra_batch(self.rng, self.starts)
        return batches, starts

    def rep(self, stream_time) -> Rep:
        H, F, D = self.nl.heisenberg, self.nl.fixedpoint, self.nl.dynamics
        mul, inv, canonical_rep = H.mul, H.inv, H.canonical_rep
        GroupElement, LatticeElement = H.GroupElement, H.LatticeElement
        from_q64 = F.FixedReal.from_q64
        step_T, iterate_T = D.step_T, D.iterate_T
        sys_ = self.system
        batches, (s_fracs, s_ints, _) = self._inputs()

        t0 = time.perf_counter()
        results = []
        for law, (fracs, ints, lattice) in zip(self.laws, batches):
            out = []
            for fr, ip, li in zip(fracs, ints, lattice):
                c = [from_q64((ip[j] << 64) + fr[j]) for j in range(9)]
                a = GroupElement(c[0], c[1], c[2], law)
                b = GroupElement(c[3], c[4], c[5], law)
                d = GroupElement(c[6], c[7], c[8], law)
                g1 = LatticeElement(li[0], li[1], li[2]).to_group(law)
                g2 = LatticeElement(li[3], li[4], li[5]).to_group(law)
                out.append((
                    mul(mul(a, b), d), mul(a, mul(b, d)),
                    mul(a, inv(a)),
                    mul(g1, g2),
                    canonical_rep(mul(a, g2)), canonical_rep(a),
                ))
            results.append((law, out))
        stepped = []
        for fr, ip in zip(s_fracs, s_ints):
            start = canonical_rep(GroupElement(
                from_q64(fr[0]), from_q64(fr[1]), from_q64((ip[2] << 64) + fr[2]), self.laws[0]
            ))
            pt = start
            for _ in range(self.steps):
                pt = step_T(sys_, pt)
            stepped.append((pt, iterate_T(sys_, start, self.steps)))
        wall = time.perf_counter() - t0

        self.results, self.stepped = results, stepped
        ops = (self.ops_per_instance * self.per_law * len(self.laws)
               + self.starts * (self.steps + 1))
        return Rep(wall, ops, wall)

    def check_rep(self, checks):
        H = self.nl.heisenberg
        for law, out in self.results:
            ident = H.identity(law).coords()
            ok = [0, 0, 0, 0]
            for abc1, abc2, aia, g12, cag, ca in out:
                ok[0] += abc1.coords() == abc2.coords()
                ok[1] += aia.coords() == ident
                ok[2] += all(v.frac().scaled == 0 for v in g12.coords())
                ok[3] += cag.coords() == ca.coords()
            for label, good in zip(("associativity", "inverse", "lattice closure",
                                    "coset invariance"), ok):
                checks.tally(f"{law.kind} {label}", good, len(out))
        for stepped, closed in self.stepped:
            checks.add("step_T^n equals iterate_T", stepped.coords() == closed.coords())
        self.results = self.stepped = None


WORKLOADS = {w.name: w for w in (StandardRun, TwoRouteParallel, Sieve1e8, ExactAlgebra)}
