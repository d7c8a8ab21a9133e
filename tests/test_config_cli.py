import dataclasses
import gc
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nillab import cli
from nillab.cli import main
from nillab.config import (
    KNOWN_EXPERIMENTS,
    ExperimentConfig,
    load_config,
    parse_config,
    standard_config,
)
from nillab.dynamics import TrigTerm
from nillab.fixedpoint import FixedReal

def test_standard_config_round_trip():
    cfg = standard_config()
    assert parse_config(cfg.to_ini()) == cfg
    assert parse_config(cfg.to_ini()).config_hash() == cfg.config_hash()


def test_shipped_standard_config_matches_builder():
    path = Path(__file__).resolve().parents[1] / "configs" / "standard.ini"
    assert load_config(path) == standard_config()
    assert standard_config().to_ini().encode("utf-8") == path.read_bytes()


def test_round_trip_with_custom_fields(tmp_path):
    cfg = standard_config(
        checkpoints=(10, 100), sieve_bound=1000, workers=3,
        weyl_freqs=((2, -1, 0), (0, 0, 1)), out_dir="elsewhere",
    )
    text = cfg.to_ini()
    (tmp_path / "c.ini").write_text(text)
    assert load_config(tmp_path / "c.ini") == cfg


def test_validation_errors():
    with pytest.raises(ValueError):
        standard_config(p=4)
    with pytest.raises(ValueError):
        standard_config(checkpoints=(100, 50))
    with pytest.raises(ValueError):
        standard_config(checkpoints=(10**8,))  # beyond sieve bound
    with pytest.raises(ValueError):
        standard_config(segment_size=1000)
    with pytest.raises(ValueError):
        standard_config(workers=0)
    with pytest.raises(ValueError):
        standard_config(experiments=("nonsense",))
    with pytest.raises(ValueError):
        standard_config(xi=1, bump_radius=0.5)


@pytest.mark.parametrize("bound", [0, -5, 2 * 10**9, 10**7 + 0.5, True])
def test_sieve_bound_checked_early(bound):
    """A sieve bound the sieve would refuse fails validation, naming the field,
    before a run deletes its old manifest or streams anything."""
    with pytest.raises(ValueError, match=r"\[run\] sieve_bound"):
        standard_config(sieve_bound=bound)


@pytest.mark.parametrize("field, label, value", [
    ("xi", "[observable] xi", 1.5),
    ("d1", "[system] d1", 1.5),
    ("p", "[joining] p", 3.0),
    ("workers", "[run] workers", True),
    ("segment_size", "[run] segment_size", 65536.0),
    ("alpha", "[system] alpha", 0.25),
    ("alpha", "[system] alpha", FixedReal.from_scaled(2**127 + 1)),
    ("out_dir", "[run] out", Path("runs")),
    ("terms", "[system] terms", (TrigTerm(1.0, 0, 0.1, 0.0),)),
    ("experiments", "[run] experiments", ()),
], ids=["xi", "d1", "p", "workers", "segment_size", "alpha-float", "alpha-off-grid",
        "out-path", "terms-float-k1", "experiments-empty"])
def test_python_value_its_ini_text_cannot_say_is_rejected(field, label, value):
    with pytest.raises(ValueError, match=re.escape(f"{label} = ")):
        standard_config(**{field: value})


@pytest.mark.parametrize("build", [
    standard_config,
    lambda: small_cfg("runs/small"),
    lambda: standard_config(xi=0, base_mode=(1, 2)),
], ids=["standard", "small", "xi0"])
def test_valid_config_is_what_its_ini_text_says(build):
    cfg = build()
    assert parse_config(cfg.to_ini()) == cfg


def test_float_checkpoints_rejected_so_the_ini_round_trips():
    with pytest.raises(ValueError, match=r"\[run\] checkpoints"):
        standard_config(checkpoints=(1000.0, 10**4))
    cfg = standard_config(checkpoints=(np.int64(1000), 10**4))
    assert "checkpoints = 1000,10000\n" in cfg.to_ini()
    assert parse_config(cfg.to_ini()) == standard_config(checkpoints=(1000, 10**4))


def test_parse_error_reports_field():
    with pytest.raises(ValueError, match="missing"):
        parse_config("[system]\nalpha = 0.1\n")
    with pytest.raises(ValueError, match="parse error"):
        parse_config("not an ini at all [")


def test_weyl_freqs_must_be_nonzero_integer_triples():
    text = standard_config().to_ini()
    line = "freqs = 1,0,0; 0,1,0; 0,0,1; 1,1,2"
    assert line in text
    for bad in ("1,0", "0,0,0", "1,0,0; 1,2,3,4", "1,x,0"):
        with pytest.raises(ValueError, match=r"\[weyl\] freqs"):
            parse_config(text.replace(line, f"freqs = {bad}"))
    with pytest.raises(ValueError, match=r"\[weyl\] freqs"):
        standard_config(weyl_freqs=((1, 0),))


def test_repeated_weyl_freq_is_rejected_naming_the_field():
    """A triple listed twice would write its weyl.csv rows twice and evaluate
    its mode twice; the field is named, with the repeated triples."""
    for freqs, repeated in ((((1, 0, 0), (1, 0, 0)), [(1, 0, 0)]),
                            (((1, 1, 2), (0, 1, 0), (0, 1, 0), (1, 1, 2)),
                             [(0, 1, 0), (1, 1, 2)])):
        with pytest.raises(ValueError, match=r"\[weyl\] freqs = .* repeats " +
                           re.escape(str(repeated))):
            standard_config(weyl_freqs=freqs)
    text = standard_config().to_ini().replace("freqs = 1,0,0; 0,1,0; 0,0,1; 1,1,2",
                                              "freqs = 1,0,0; 0,1,0; 1,0,0")
    with pytest.raises(ValueError, match=r"\[weyl\] freqs = .* repeats \[\(1, 0, 0\)\]"):
        parse_config(text)
    assert standard_config(weyl_freqs=((1, 0, 0), (2, 0, 0))).weyl_freqs == ((1, 0, 0), (2, 0, 0))


def test_malformed_term_names_the_field():
    text = standard_config().to_ini()
    line = "terms = 1,0,0.1,0.0"
    assert line in text
    for bad in ("1,0,0.1", "1,0,0.1,0.0,7", "1,a,0.1,0.0"):
        with pytest.raises(ValueError, match=r"\[system\] terms"):
            parse_config(text.replace(line, f"terms = {bad}"))


@pytest.mark.parametrize(
    "section, key, good, bad",
    [
        ("run", "checkpoints", "1000,10000,100000,1000000,10000000", "1e3,1e4"),
        ("run", "sieve_bound", "10000000", "1e7"),
        ("observable", "bump_center", "0.5,0.5", "0.5"),
        ("observable", "bump_center", "0.5,0.5", "0.5,0.5,0.5"),
        ("observable", "base_mode", "0,0", "1"),
        ("system", "alpha", "7640891576956012809/2^64", "sqrt(2)"),
    ],
)
def test_malformed_field_is_named(section, key, good, bad):
    text = standard_config().to_ini()
    assert f"{key} = {good}\n" in text
    with pytest.raises(ValueError, match=rf"\[{section}\] {key}"):
        parse_config(text.replace(f"{key} = {good}\n", f"{key} = {bad}\n"))


@pytest.mark.parametrize("key, bad", [("workers", 0), ("workers", -3), ("segment_size", 1000)])
def test_plan_field_is_named(key, bad):
    good = getattr(standard_config(), key)
    text = standard_config().to_ini()
    assert f"{key} = {good}\n" in text
    with pytest.raises(ValueError, match=rf"\[run\] {key} = {bad}"):
        parse_config(text.replace(f"{key} = {good}\n", f"{key} = {bad}\n"))
    with pytest.raises(ValueError, match=rf"\[run\] {key} = {bad}"):
        standard_config(**{key: bad})


def test_base_mode_arity_checked_when_xi_is_zero():
    text = standard_config().to_ini().replace("xi = 1", "xi = 0")
    assert parse_config(text).base_mode == (0, 0)
    with pytest.raises(ValueError, match=r"\[observable\] base_mode"):
        parse_config(text.replace("base_mode = 0,0", "base_mode = 0"))


def test_config_with_retired_seed_key_still_loads():
    text = standard_config().to_ini().replace("workers = 1\n", "workers = 1\nseed = 20260811\n")
    assert "seed = 20260811" in text
    assert parse_config(text) == standard_config()


def test_optional_keys_take_dataclass_defaults():
    required = {
        ("system", "alpha"): "0.25",
        ("system", "beta"): "0.5",
        ("run", "checkpoints"): "10,100",
        ("run", "sieve_bound"): "100",
    }

    def ini(keys):
        sections = {}
        for (section, key), value in keys.items():
            sections.setdefault(section, []).append(f"{key} = {value}")
        return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())

    cfg = parse_config(ini(required))
    for field in dataclasses.fields(ExperimentConfig):
        if field.default is not dataclasses.MISSING:
            assert getattr(cfg, field.name) == field.default, field.name
    for section, key in required:
        rest = {k: v for k, v in required.items() if k != (section, key)}
        with pytest.raises(ValueError, match=rf"config missing \[{section}\] {key}"):
            parse_config(ini(rest))


def test_alpha_beta_snap_exact():
    cfg = standard_config()
    assert cfg.alpha.scaled % 2**64 == 0 and cfg.beta.scaled % 2**64 == 0
    assert 0 < float(cfg.alpha) < 1 and 0 < float(cfg.beta) < 1


# -- CLI ---------------------------------------------------------------------------


def small_cfg(out_dir: str) -> ExperimentConfig:
    return standard_config(
        checkpoints=(200, 500),
        sieve_bound=500,
        segment_size=128,
        workers=2,
        out_dir=out_dir,
        weyl_freqs=((1, 0, 0), (0, 0, 1)),
        coboundary_cutoff=8,
    )


def small_cfg_text(out_dir: str) -> str:
    return small_cfg(out_dir).to_ini()


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8 and "[FAIL]" not in out


def test_cli_verify_fault_injection(capsys):
    assert main(["verify", "--inject-fault", "twist"]) == 1
    assert "[FAIL] group-laws" in capsys.readouterr().out


def test_cli_verify_repeatable(capsys):
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == first


def test_cli_run_manifest_complete(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["name"] for f in manifest["files"]}
    for name in ("correlation.csv", "bilinear.csv", "davenport.csv", "weyl.csv",
                 "constants.json", "coboundary.json"):
        assert name in listed
        assert (out / name).exists()
    for entry in manifest["files"]:
        assert (out / entry["name"]).stat().st_size == entry["bytes"]
    assert manifest["config_hash"] == parse_config(cfg_path.read_text()).config_hash()
    assert "soft_thresholds" in manifest


def test_cli_run_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "a")))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    for name in ("correlation.csv", "bilinear.csv", "davenport.csv", "weyl.csv",
                 "constants.json", "coboundary.json", "correlation.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_rejects_checkpoint_beyond_sieve(tmp_path, capsys):
    text = small_cfg_text(str(tmp_path / "o")).replace(
        "sieve_bound = 500", "sieve_bound = 100"
    )
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(text)
    with pytest.raises(ValueError, match="sieve bound"):
        main(["run", "--config", str(cfg_path)])


def test_cli_checkpoints_override_names_the_option(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    with pytest.raises(ValueError, match="--checkpoints"):
        main(["constants", "--config", str(cfg_path), "--checkpoints", "1e2,1e3"])
    with pytest.raises(ValueError, match="^--checkpoints = '' is malformed"):
        main(["constants", "--config", str(cfg_path), "--checkpoints", ""])
    assert main(["constants", "--config", str(cfg_path), "--checkpoints", "100,200"]) == 0


def test_cli_empty_out_names_the_option(tmp_path, monkeypatch):
    """An empty --out fails naming the option, before ``run`` could delete
    the working directory's manifest.json or write its reports there."""
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(ValueError, match="^--out = '' is malformed"):
        main(["run", "--config", str(cfg_path), "--out", ""])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "manifest.json"]


@pytest.mark.parametrize("option, value", [("--workers", "0"), ("--workers", "-2"),
                                           ("--workers", "100000"), ("--segment-size", "1000")])
def test_cli_plan_overrides_name_the_option(tmp_path, option, value):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    with pytest.raises(ValueError, match=f"^{option}: "):
        main(["correlate", "--config", str(cfg_path), option, value])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, n", [("orbit", "0"), ("orbit", "-3"), ("winding", "-2")])
def test_cli_step_count_is_checked_before_writing(tmp_path, command, n):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    with pytest.raises(ValueError, match="--n"):
        main([command, "--config", str(cfg_path), "--n", n])
    assert not (tmp_path / "out").exists()


def test_cli_two_route_rejects_xi_zero_before_streaming(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")).replace("xi = 1", "xi = 0"))

    def pair_route(*args, **kwargs):
        raise AssertionError("the pair route streamed")

    monkeypatch.setattr(cli, "bilinear_sum", pair_route)
    with pytest.raises(ValueError, match="nonzero vertical frequency"):
        main(["bilinear", "--config", str(cfg_path), "--two-route"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("y0", ["nan", "inf"])
def test_cli_winding_rejects_a_non_finite_y0(mesh_sizes, y0):
    """A non-finite --y0 fails naming the option, and no mesh grows: a lift
    that is not finite never settles under refinement."""
    with pytest.raises(ValueError, match="--y0"):
        main(["winding", "--y0", y0])


def test_cli_winding_and_constants(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    assert main(["winding", "--config", str(cfg_path), "--n", "4"]) == 0
    assert "winding of H_4" in capsys.readouterr().out
    assert main(["constants", "--config", str(cfg_path)]) == 0
    payload = json.loads((tmp_path / "out" / "constants.json").read_text())
    assert payload["delta1"] > 0


def test_cli_reduce_joining(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    assert main(["reduce-joining", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "twist p^2-q^2   : 5" in out


def test_cli_orbit_and_sieve(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    assert main(["orbit", "--config", str(cfg_path), "--n", "16"]) == 0
    orbit = (tmp_path / "out" / "orbit.csv").read_text().splitlines()
    assert orbit[0] == "n,x,y,z" and len(orbit) == 17
    assert main(["sieve", "--config", str(cfg_path), "--bound", "2000"]) == 0
    out = capsys.readouterr().out
    assert "M(1000) = " in out
    assert re.search(r"^sieved mu to 2000 in \d+\.\d\d s \(\S+ ints/s\)$", out, re.M)
    assert main(["sieve", "--config", str(cfg_path), "--bound", "2000",
                 "--out", str(tmp_path / "sieve")]) == 0
    assert (tmp_path / "sieve" / "mertens.csv").read_text() == "N,mertens\n1000,2\n"


@pytest.mark.parametrize("bound", ["0", "-5", str(10**9 + 1)])
def test_cli_sieve_rejects_bound_outside_range(tmp_path, monkeypatch, bound):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))

    def sieve(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr(cli, "sieve_mobius", sieve)
    with pytest.raises(ValueError, match="--bound"):
        main(["sieve", "--config", str(cfg_path), "--bound", bound,
              "--out", str(tmp_path / "sieve")])
    assert not (tmp_path / "sieve").exists()


def test_registry_order_is_known_experiments():
    assert tuple(cli.EXPERIMENTS) == KNOWN_EXPERIMENTS


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    cfg_path = root / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(root / "run")))
    assert main(["run", "--config", str(cfg_path)]) == 0
    return cfg_path, root / "run"


@pytest.mark.parametrize("command", KNOWN_EXPERIMENTS)
def test_cli_subcommand_matches_run(small_run, tmp_path, capsys, command):
    cfg_path, run_dir = small_run
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written
    for name in written:
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes()
    # the summary entries, then the files written
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines[-len(written):]) == [f"wrote {tmp_path / name}" for name in written]
    assert all(" = " in line for line in lines[:-len(written)])


def test_cli_run_removes_stale_manifest(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(out)))

    def interrupted(cfg, run):
        raise RuntimeError("interrupted")

    monkeypatch.setitem(cli.EXPERIMENTS, "bilinear", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["run", "--config", str(cfg_path)])
    assert (out / "correlation.csv").exists()
    assert not (out / "manifest.json").exists()


def test_cli_run_leaves_no_manifest_when_config_ini_fails(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "config.ini").mkdir(parents=True)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(out)))
    with pytest.raises(IsADirectoryError):
        main(["run", "--config", str(cfg_path)])
    assert not (out / "manifest.json").exists()
    assert sorted(p.name for p in out.iterdir()) == ["config.ini"]


def test_run_weyl_reads_the_pair_scan(tmp_path, monkeypatch, capsys):
    """In ``run`` no joining stream scans its own p + q lifts: Weyl reads the
    pair route's scan.  The ``weyl`` subcommand alone still scans them."""
    from nillab.engine import _LaneStream

    u_values = _LaneStream.u_values
    lifted = []

    def counting(self, i, *ws):
        if self.p != 1:
            lifted.append(i.size)
        return u_values(self, i, *ws)

    monkeypatch.setattr(_LaneStream, "u_values", counting)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert lifted == []
    assert main(["weyl", "--config", str(cfg_path)]) == 0
    assert sum(lifted) == 500


@pytest.mark.parametrize("names, holds", [
    (list(KNOWN_EXPERIMENTS), True),
    (["bilinear", "weyl"], True),
    (["bilinear"], False),
    (["weyl"], False),
    (["correlate", "bilinear", "davenport"], False),
    (["bilinear", "davenport", "weyl"], True),
    (["davenport", "weyl"], False),
])
def test_run_holds_a_pair_scan_only_for_weyl_after_bilinear(std_cfg, names, holds):
    """A PairScan makes the pair route's pass make the Weyl sums too, so only
    an invocation whose Weyl sums follow its pair route has one.  It takes
    the run's mu, for the pass to make Davenport's sums as well, only when
    Davenport runs too and (1, 0, 0) is among the Weyl frequencies."""
    run = cli.RunContext(std_cfg, names)
    assert (run.pair_scan is not None) == holds
    davenport = holds and "davenport" in names
    assert (holds and run.pair_scan.weights is not None) == davenport
    if davenport:
        assert run.pair_scan.weights == run.table.mu_slice
    cfg = dataclasses.replace(std_cfg, weyl_freqs=((0, 1, 0), (1, 1, 2)))
    without = cli.RunContext(cfg, names).pair_scan
    assert (without is not None) == holds and (without is None or without.weights is None)


@pytest.mark.parametrize("checkpoints", ["200,500", "1,17,64,333"])
def test_each_experiment_alone_writes_the_bytes_of_run(tmp_path, capsys, checkpoints):
    """Each experiment subcommand run alone streams its own passes, where
    ``run`` reads the Weyl and Davenport sums from the pair route's pass;
    every report it writes is byte-identical to the one ``run`` writes."""
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "run")))
    assert main(["run", "--config", str(cfg_path), "--checkpoints", checkpoints]) == 0
    written = set()
    for name in cli.EXPERIMENTS:
        alone = tmp_path / name
        assert main([name, "--config", str(cfg_path), "--checkpoints", checkpoints,
                     "--out", str(alone)]) == 0
        for path in alone.iterdir():
            assert path.read_bytes() == (tmp_path / "run" / path.name).read_bytes(), path.name
            written.add(path.name)
    reports = {p.name for p in (tmp_path / "run").iterdir()} - {"config.ini", "manifest.json"}
    assert written == reports


def test_run_bilinear_then_weyl_peak_does_not_grow_with_n(std_cfg):
    """bilinear then weyl through one RunContext in 4096-pair chunks hold no
    array that grows with N: the traced peak at N = 2**19 is within 10% of
    the peak at 2**17 (1.07x here; a ring of about N / 3 u64 slots, or an
    N-long S* array, grows it past 1.5x)."""
    peaks = []
    for n in (1 << 17, 1 << 19):
        cfg = dataclasses.replace(std_cfg, checkpoints=(1000, n), sieve_bound=n,
                                  segment_size=4096)
        run = cli.RunContext(cfg, ["bilinear", "weyl"])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for name in ("bilinear", "weyl"):
                cli.EXPERIMENTS[name](cfg, run)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], f"peak grew {peaks[1] / peaks[0]:.3f}x"


# -- bad input fails in validate, naming its field, before run writes ---------------


@pytest.mark.parametrize("old, new, field", [
    ("terms = 1,0,0.1,0.0", "terms = 1,0,2000,0.0", r"\[system\] terms"),
    ("terms = 1,0,0.1,0.0", "terms = 1,0,nan,0.0", r"\[system\] terms"),
    ("terms = 1,0,0.1,0.0", "terms = 1,0,inf,0.0", r"\[system\] terms"),
    ("terms = 1,0,0.1,0.0", "terms = 1,0,0.1,nan", r"\[system\] terms"),
    ("terms = 1,0,0.1,0.0", "terms = 1,0,600,0.0; 0,1,-600,0.0", r"\[system\] terms"),
    ("alpha = 7640891576956012809/2^64", "alpha = 1.25", r"\[system\] alpha"),
    ("alpha = 7640891576956012809/2^64", "alpha = -1/2^3", r"\[system\] alpha"),
    ("beta = 13503953896175478587/2^64", "beta = 1", r"\[system\] beta"),
    ("k = 1\n", "k = 0\n", r"\[coboundary\] k"),
    ("cutoff = 8\n", "cutoff = 0\n", r"\[coboundary\] cutoff"),
    ("cutoff = 8\n", "cutoff = -4\n", r"\[coboundary\] cutoff"),
    ("bump_radius = 0.25", "bump_radius = 0.5", r"\[observable\] bump_center"),
    ("bump_radius = 0.25", "bump_radius = -0.1", r"bump_radius = -0.1: bump radius"),
    ("bump_center = 0.5,0.5", "bump_center = 0.9,0.5", r"\[observable\] bump_center"),
    ("freqs = 1,0,0; 0,0,1\n", "freqs = \n", r"\[weyl\] freqs"),
    ("freqs = 1,0,0; 0,0,1\n", "freqs = 1,0,0; 0,0,1; 1,0,0\n", r"\[weyl\] freqs .* repeats"),
    ("workers = 2\n", "workers = 100000\n", r"\[run\] workers = 100000"),
    ("segment_size = ", "segment_sise = ", r"no field declares \[run\] segment_sise"),
    ("[weyl]", "[weil]", r"no field declares \[weil\] freqs"),
    ("[system]", "[DEFAULT]\nworkers = 2\n\n[system]", r"no field declares \[DEFAULT\] workers"),
    ("\nout = ", "\nout = \n# ", r"\[run\] out"),  # the old directory becomes a comment
])
def test_bad_field_fails_before_run_writes(tmp_path, old, new, field):
    text = small_cfg_text(str(tmp_path / "out"))
    assert text.count(old) == 1
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=field):
        main(["run", "--config", str(cfg_path)])
    assert not (tmp_path / "out").exists()


def test_large_but_bounded_amplitude_is_accepted():
    text = standard_config().to_ini().replace("terms = 1,0,0.1,0.0", "terms = 1,0,1000,0.0")
    assert parse_config(text).terms[0].amplitude == 1000.0


# -- each subcommand accepts only the options it reads -------------------------------


@pytest.mark.parametrize("command, option, value", [
    ("sieve", "--workers", "2"),
    ("sieve", "--segment-size", "128"),
    ("sieve", "--checkpoints", "100"),
    ("orbit", "--workers", "2"),
    ("orbit", "--segment-size", "128"),
    ("reduce-joining", "--out", "x"),
    ("reduce-joining", "--workers", "2"),
    ("reduce-joining", "--segment-size", "128"),
    ("reduce-joining", "--checkpoints", "100"),
    ("winding", "--out", "x"),
    ("winding", "--workers", "2"),
    ("winding", "--segment-size", "128"),
    ("winding", "--checkpoints", "100"),
])
def test_cli_option_a_command_ignores_is_an_error(tmp_path, capsys, command, option, value):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_kept_options_still_work(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(small_cfg_text(str(tmp_path / "out")))
    assert main(["orbit", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--checkpoints", "3,40"]) == 0
    rows = (tmp_path / "o" / "orbit.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["n", "3", "40"]
    assert main(["sieve", "--config", str(cfg_path), "--bound", "1000",
                 "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "mertens.csv").exists()
    assert main(["winding", "--config", str(cfg_path), "--n", "3", "--y0", "0.5"]) == 0
    assert main(["correlate", "--config", str(cfg_path), "--out", str(tmp_path / "c"),
                 "--workers", "1", "--segment-size", "64", "--checkpoints", "100,200"]) == 0
    assert (tmp_path / "c" / "correlation.csv").read_text().splitlines()[1].startswith("100,")
    assert not (tmp_path / "out").exists()
