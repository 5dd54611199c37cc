"""Configuration layering, CLI subcommands, artifacts, and determinism."""

import importlib
import json
import math
import os
import pkgutil
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peierls
import peierls.validate
from peierls.algebra import mode_energies
from peierls.cli import _BLOCK_ROWS, _COMMANDS as COMMANDS, _write_csv, main
from peierls.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config_file,
    reference_config_path,
)
from peierls.landscape import _gradient_and_hessian, _slope_kernel, energy_densities, find_critical_points, landscape_grid
from peierls.model import CoherentAmplitude


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_basic(tmp_path):
    path = write_cfg(tmp_path, "t = 0.5\nzeta = 1.25\nbig_l = 32\n# comment\n")
    values = parse_config_file(path)
    assert values == {"t": 0.5, "zeta": 1.25, "big_l": 32}


def test_parse_reports_line_and_field(tmp_path):
    path = write_cfg(tmp_path, "t = 0.5\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*bogus"):
        parse_config_file(path)
    path2 = write_cfg(tmp_path, "t = not-a-number\n", name="bad.cfg")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1.*'t'"):
        parse_config_file(path2)


def test_precedence_file_env_cli(tmp_path):
    path = write_cfg(tmp_path, "t = 0.5\nq = 1.5\n")
    cfg = load_config(path, overrides={"q": 2.0}, environ={"PEIERLS_T": "0.7", "PEIERLS_Q": "1.8"})
    assert cfg.t == 0.7  # env beats file
    assert cfg.q == 2.0  # CLI beats env


def test_invalid_field_values():
    with pytest.raises(ConfigError, match="t"):
        RunConfig(t=-1.0)
    with pytest.raises(ConfigError, match="resolution"):
        RunConfig(resolution=0)


def test_reference_configs_load():
    for name in ("double_well", "kink_dynamics"):
        cfg = load_config(reference_config_path(name))
        assert cfg.q == 1.5 and cfg.w == -1.0
    with pytest.raises(ConfigError):
        reference_config_path("missing")


def test_seeds_deterministic():
    cfg = load_config(reference_config_path("double_well"))
    assert cfg.seeds() == cfg.seeds()
    assert cfg.seeds()[0] == (0.0, 0.0)
    assert len(cfg.seeds()) == 1 + len(cfg.seed_rings) * cfg.seed_angles


def test_cli_exit_code_config_error(tmp_path, capsys):
    rc = main(["landscape", "--reference", "double_well", "-o", str(tmp_path), "--set", "t=-1"])
    assert rc == 2
    assert "t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("kink-spectrum", "kink_site=500", "kink site 500 outside"),
        ("kink-propagate", "kink_site=500", "kink site 500 outside"),
        ("kink-spectrum", "n_sites=2", "at least 3 sites"),
        ("dynamics", "dt=-1", "dt must be positive"),
        ("kink-propagate", "kink_dt=0", "dt must be positive"),
        ("dynamics", "x0=nan", "must be finite"),
        ("kink-propagate", "anchor_offset=500", "anchor_offset: initial anchor 100 + 500 outside"),
        ("kink-propagate", "n_sites=5 kink_site=2 anchor_offset=0", "n_sites: propagating a kink needs at least 6"),
        ("spectrum", "z_re=300", "bonds g exp(+-loc) overflow at state location"),
        ("kink-spectrum", "z_re=300", "bonds g exp(+-loc) overflow at state location"),
        ("spectrum", "t=1e308", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite"),
        ("kink-spectrum", "t=1e308", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite"),
        ("kink-propagate", "t=1e308", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite"),
        ("landscape", "t=1e308", "is not finite at t=1e+308, zeta=1.4, kappa=0.35"),
        ("critical-points", "t=1e308", "is not finite at t=1e+308, zeta=1.4, kappa=0.35"),
        ("dynamics", "t=1e308", "is not finite at t=1e+308, zeta=1.4, kappa=0.35"),
        ("landscape", "zeta=30", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite at"),
        ("spectrum", "zeta=30", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite at"),
        ("dynamics", "zeta=30", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite at"),
        ("kink-spectrum", "zeta=30", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite at"),
        ("kink-propagate", "kappa=1e200", "effective coupling g = t exp(zeta^2 + kappa^2) is not finite at"),
        ("landscape", "w=1e300", "q^w and q^-w must be finite, got q=1.5, w=1e+300"),
        ("critical-points", "w=-1e300", "q^w and q^-w must be finite, got q=1.5, w=-1e+300"),
        ("dynamics", "q=1e-310", "q^w and q^-w must be finite, got q=1e-310, w=-1.0"),
        ("spectrum", "w=1e300", "q^w and q^-w must be finite"),
        ("landscape", "t=nan", "t must be finite"),
        ("landscape", "zeta=nan", "zeta must be finite"),
        ("landscape", "kappa=-inf", "kappa must be finite"),
        ("landscape", "q=nan", "q must be finite"),
        ("landscape", "w=inf", "w must be finite"),
        ("kink-spectrum", "z_re=nan", "z_re must be finite"),
        ("spectrum", "z_im=-inf", "z_im must be finite"),
        ("landscape", "re_min=nan", "re_min must be finite"),
        ("landscape", "im_max=inf", "im_max must be finite"),
        ("critical-points", "newton_tol=nan", "newton_tol must be positive"),
        ("critical-points", "newton_tol=-1", "newton_tol must be positive"),
        ("critical-points", "max_step=-1", "max_step must be positive"),
        ("critical-points", "newton_tol=inf", "newton_tol must be positive"),
        ("critical-points", "max_step=inf", "max_step must be positive"),
        ("critical-points", "seed_rings=0.05,nan", "seed_rings must be finite and >= 0"),
        ("critical-points", "seed_rings=-0.05", "seed_rings must be finite and >= 0"),
        ("dynamics", "settle_tol=nan", "settle_tol must be finite and >= 0"),
        ("dynamics", "settle_tol=-1", "settle_tol must be finite and >= 0"),
        ("dynamics", "dt=1e308", "dt * steps must be finite"),
        ("kink-propagate", "kink_dt=1e308 kink_steps=3", "kink_dt * kink_steps must be finite"),
        ("landscape", "re_min=-1.7e308 re_max=1.7e308 resolution=3", "re_max - re_min must be finite"),
        ("landscape", "im_min=-1e308 im_max=1e308", "im_max - im_min must be finite"),
    ],
)
def test_cli_out_of_range_input_exits_2(tmp_path, capsys, command, setting, message):
    # library range checks raise ValueError; the CLI maps them to exit 2 with one error line
    argv = [command, "--reference", "kink_dynamics", "-o", str(tmp_path)]
    for pair in setting.split():
        argv += ["--set", pair]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def run_naming_field(tmp_path, monkeypatch, source, field, value):
    """Run `dynamics` with `field` set in a config file, a --set or the environment."""
    args = ["dynamics", "-o", str(tmp_path / "out")]
    if source == "config":
        args += ["--config", str(write_cfg(tmp_path, f"{field} = {value}\n"))]
    elif source == "set":
        args += ["--set", f"{field}={value}"]
    else:
        monkeypatch.setenv(f"PEIERLS_{field.upper()}", value)
    return main(args)


@pytest.mark.parametrize("source", ["config", "set", "env"])
def test_cli_strict_paper_is_an_unknown_field(tmp_path, capsys, monkeypatch, source):
    assert run_naming_field(tmp_path, monkeypatch, source, "strict_paper", "true") == 2
    assert "unknown field 'strict_paper'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "set", "env"])
def test_cli_phonon_norm_is_an_unknown_field(tmp_path, capsys, monkeypatch, source):
    # the phonon energy is per unit cell, the one normalization the kink and oscillator layers use
    assert run_naming_field(tmp_path, monkeypatch, source, "phonon_norm", "per-cell") == 2
    assert "unknown field 'phonon_norm'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "set", "env"])
def test_cli_hysteresis_is_an_unknown_field(tmp_path, capsys, monkeypatch, source):
    # z is frozen, so the lattice wall is too: hysteresis tuned a re-anchoring that is gone
    assert run_naming_field(tmp_path, monkeypatch, source, "hysteresis", "0.25") == 2
    assert "unknown field 'hysteresis'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "set", "env"])
def test_cli_workers_is_an_unknown_field(tmp_path, capsys, monkeypatch, source):
    # grids are arrays evaluated in one process, so no field holds a worker count
    assert run_naming_field(tmp_path, monkeypatch, source, "workers", "2") == 2
    assert "unknown field 'workers'" in capsys.readouterr().err


def test_cli_workers_flag_is_range_checked_and_read_by_nothing(tmp_path, capsys):
    args = ["landscape", "--reference", "double_well", "--set", "resolution=11"]
    assert main(args + ["-o", str(tmp_path / "zero"), "--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: --workers must be >= 1, got 0\n"
    assert not (tmp_path / "zero").exists()
    assert main(args + ["-o", str(tmp_path / "one"), "--workers", "1"]) == 0
    assert main(args + ["-o", str(tmp_path / "two"), "--workers", "2"]) == 0
    assert without_timings(tmp_path / "two") == without_timings(tmp_path / "one")
    assert "workers" not in json.loads((tmp_path / "one" / "landscape.json").read_text())["config"]


def test_load_config_parses_a_string_override():
    # a str override goes through the parser config files, PEIERLS_* and --set use
    path = reference_config_path("kink_dynamics")
    assert load_config(path, {"kink_steps": "25", "seed_rings": "0.1, 0.2"}) == load_config(
        path, {"kink_steps": 25, "seed_rings": (0.1, 0.2)})
    with pytest.raises(ConfigError, match=r"override: field 'kink_steps': invalid literal"):
        load_config(path, {"kink_steps": "2.5"})
    with pytest.raises(ConfigError, match=r"unknown field 'workers'"):
        load_config(path, {"workers": "2"})


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"n_sites": 2}, "at least 3 sites"),
        ({"kink_site": 500}, "kink site 500 outside"),
        ({"kink_site": -1}, "kink site -1 outside"),
        ({"dt": -1.0}, "dt must be positive"),
        ({"dt": math.nan}, "dt must be positive"),
        ({"kink_dt": 0.0}, "dt must be positive"),
        ({"x0": math.nan}, "x0 must be finite"),
        ({"v0": -math.inf}, "v0 must be finite"),
    ],
)
def test_load_config_range_checks(setting, message):
    # out-of-range fields fail when the config is built, before any command
    with pytest.raises(ConfigError, match=message):
        load_config(reference_config_path("kink_dynamics"), overrides=setting)


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # no command needs scipy.integrate: validate's E and K oracle is a numpy trapezoid rule
    src = str(Path(peierls.__file__).parents[1])
    code = ("import sys, peierls.cli; print('scipy.integrate' in sys.modules); "
            "print(peierls.cli.main(sys.argv[1:]), 'scipy.integrate' in sys.modules)")
    argv = ["validate", "--reference", "double_well", "-o", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1].split() == ["0", "False"]


COLD_RUN = """\
import json, sys
import peierls.cli
from peierls.config import load_config, reference_config_path
load_config(reference_config_path("kink_dynamics"))
seen = [[None, "scipy.linalg" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    seen.append([peierls.cli.main(argv), "scipy.linalg" in sys.modules])
print(json.dumps(seen))
"""


def test_cli_import_leaves_scipy_linalg_unloaded(tmp_path):
    # only the spectrum and kink solvers need scipy.linalg, and they load it at their first call
    def cold_run(*argvs):
        """[exit code, scipy.linalg loaded] after the import and a config load, then after each command,
        all in one fresh interpreter."""
        env = {**os.environ, "PYTHONPATH": str(Path(peierls.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", COLD_RUN, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def argv(command, *overrides):
        return [command, "--reference", "kink_dynamics", "-o", str(tmp_path / command),
                *(arg for o in overrides for arg in ("--set", o))]

    # each check after a command shows that the next one, too, starts without scipy.linalg
    landscape_path = cold_run(argv("landscape", "resolution=21"), argv("critical-points"),
                              argv("dynamics", "steps=50"))
    assert landscape_path == [[None, False], [0, False], [0, False], [0, False]]
    assert cold_run(argv("kink-spectrum")) == [[None, False], [0, True]]
    assert cold_run(argv("spectrum")) == [[None, False], [0, True]]


IMPORT_MAP_RUN = """\
import json, sys
import peierls.cli
from peierls.config import load_config, reference_config_path
load_config(reference_config_path("kink_dynamics"))
code = None
if len(sys.argv) > 1:
    try:
        code = peierls.cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps([code, [m for m in ("scipy.special", "scipy.linalg", "scipy.integrate", "orjson")
                         if m in sys.modules]]))
"""


def test_cli_commands_load_only_the_scipy_paths_they_evaluate(tmp_path):
    # E and K (scipy.special) only where the continuum density or the slope kernel is evaluated,
    # LAPACK (scipy.linalg) only where a ring or kink spectrum is solved, scipy.integrate nowhere,
    # and the float formatter (orjson) only where a CSV is written
    def import_map(*argv):
        """[exit code, loaded scipy subpackages and orjson] after the import, a config load and
        `argv`, in a fresh interpreter."""
        env = {**os.environ, "PYTHONPATH": str(Path(peierls.__file__).parents[1])}
        run = [sys.executable, "-c", IMPORT_MAP_RUN, *([json.dumps(argv)] if argv else [])]
        proc = subprocess.run(run, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    special, linalg, orjson = "scipy.special", "scipy.linalg", "orjson"
    expected = {
        "landscape": [special, orjson], "critical-points": [special, orjson], "dynamics": [special, orjson],
        "spectrum": [linalg, orjson], "kink-spectrum": [linalg, orjson], "kink-propagate": [linalg, orjson],
        "validate": [special, linalg],
    }
    assert set(expected) == set(COMMANDS)
    assert import_map() == [None, []]
    for command, loaded in expected.items():
        assert import_map(command, *SMALL_OPTIONS, "-o", str(tmp_path / command)) == [0, loaded], command
    assert import_map("--help") == [0, []]
    assert import_map("kink-spectrum", "--set", "t=-1", "-o", str(tmp_path / "config-error")) == [2, []]


def oracle_csv(header, columns):
    """The per-cell rule the column writer must reproduce: the shortest
    round-trip repr for floats, str for anything else; a (values, index)
    column is values[index]."""
    def fmt(v):
        return repr(float(v)) if isinstance(v, float) else str(v)
    def expand(column):
        return [column[0][i] for i in column[1]] if isinstance(column, tuple) else column
    lines = [",".join(header), *(",".join(fmt(v) for v in row) for row in zip(*map(expand, columns)))]
    return ("\n".join(lines) + "\n").encode("ascii")


SIGNED_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]
# the writer's formatter switches between orjson and repr at |x| = 1e-4 and 1e16
SWITCH_OVER = [1e-4, -1e-4, math.nextafter(1e-4, 0.0), 1e15, math.nextafter(1e16, 0.0), 1e16,
               9999999999999998.0, 2.0**53, 0.1 + 0.2]
EDGE_FLOATS = [0.0, -0.0, math.nan, SIGNED_NAN, PAYLOAD_NAN, math.inf, -math.inf, 5e-324, -2.5e-310, 0.1, *SWITCH_OVER]


@st.composite
def csv_columns(draw):
    rows = draw(st.integers(0, 12))
    floats = st.floats() | st.sampled_from(EDGE_FLOATS) | st.floats(1e-4, 1e16)

    def factored():
        # distinct floats or labels, and an index of one per row into them
        if draw(st.booleans()):
            values = np.array(draw(st.lists(floats, min_size=1, max_size=6)), dtype=np.float64)
        else:
            values = draw(st.lists(st.text("abcdefghijklmnopqrstuvwxyz_-", max_size=6), min_size=1, max_size=6))
        index = draw(st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows))
        return values, np.array(index, dtype=np.intp)

    kinds = {
        "float": lambda: np.array(draw(st.lists(floats, min_size=rows, max_size=rows)), dtype=np.float64),
        "float_list": lambda: draw(st.lists(floats, min_size=rows, max_size=rows)),
        "int": lambda: np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=rows, max_size=rows))),
        "str": lambda: draw(st.lists(st.text("abcdefghijklmnopqrstuvwxyz_", max_size=6), min_size=rows, max_size=rows)),
        "factored": factored,
    }
    chosen = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5))
    return [kinds[kind]() for kind in chosen]


@settings(max_examples=200, deadline=None)
@given(columns=csv_columns())
@example(columns=[np.array([0.0, -0.0, -0.0, 0.0, math.nan, SIGNED_NAN, PAYLOAD_NAN, math.inf, -math.inf, 5e-324]),
                  np.arange(10), ["a", "b", "", "ok", "domain", "a", "b", "c", "d", "e"]])
@example(columns=[np.array([]), [], np.array([], dtype=int)])
@example(columns=[np.array(SWITCH_OVER), [-x for x in SWITCH_OVER]])
@example(columns=[(["ok", "domain"], np.arange(len(EDGE_FLOATS)) % 2), np.array(EDGE_FLOATS)])  # "\n" after each edge
def test_write_csv_matches_per_cell_oracle(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(path, header, columns)
    assert path.read_bytes() == oracle_csv(header, columns)


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_write_csv_matches_oracle_across_blocks(tmp_path, rows):
    # the last rows hold a -0.0 and a payload NaN seen in no earlier block, after 0.0 and a plain NaN
    rng = np.random.default_rng(rows)
    floats = rng.choice([0.0, 0.1, math.nan, 1e300, -2.5e-310], rows)
    if rows >= 2:
        floats[-2:] = [-0.0, PAYLOAD_NAN]
    columns = [np.arange(rows), floats, rng.standard_normal(rows), [f"s{i % 7}" for i in range(rows)],
               (np.array([0.5, -0.0, math.nan, 1e20]), rng.integers(0, 4, rows))]  # factored, cut by each block edge
    if rows > 2 * _BLOCK_ROWS:  # the normal column's orjson-formatted values fill more than one chunk
        assert np.count_nonzero(np.abs(np.unique(columns[2])) >= 1e-4) > _BLOCK_ROWS
    path = tmp_path / "out.csv"
    header = ["index", "edge", "normal", "label", "factored"]
    _write_csv(path, header, columns)
    assert path.read_bytes() == oracle_csv(header, columns)


def test_write_csv_peak_memory_below_twice_the_file(tmp_path):
    # the writer holds the distinct texts, the index arrays and one block of rows, never the whole file
    rng = np.random.default_rng(0)
    distinct = rng.standard_normal(16)
    columns = [distinct[rng.integers(0, 16, 200_000)] for _ in range(3)]
    path = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        _write_csv(path, ["a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


DOMAIN = {"w": -3.0, "re_max": 1.5}


@pytest.mark.parametrize(("reference", "overrides", "domain", "non_finite"), [
    pytest.param("kink_dynamics", DOMAIN, 1174, 0, id="domain"),  # of 41² cells
    pytest.param("kink_dynamics", {**DOMAIN, "resolution": 1}, 1, 0, id="resolution-1"),
    pytest.param("kink_dynamics", {**DOMAIN, "resolution": 2}, 3, 0, id="resolution-2"),
    pytest.param("double_well", {"re_min": 0.1, "re_max": 0.1}, 0, 0, id="degenerate-axis"),  # re texts repeat
    pytest.param("double_well", {"re_min": -1e200, "re_max": 1e200, "resolution": 5}, 0, 20, id="non-finite"),
])
def test_cli_landscape_with_domain_cells_matches_oracle(tmp_path, reference, overrides, domain, non_finite):
    # cmd_landscape hands the writer its axes and status factored; the oracle writes them cell by cell
    argv = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value!r}")]
    assert main(["landscape", "--reference", reference, "-o", str(tmp_path), *argv]) == 0
    cfg = load_config(reference_config_path(reference), overrides=overrides)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = landscape_grid(cfg.model_params(), (cfg.re_min, cfg.re_max), (cfg.im_min, cfg.im_max), cfg.resolution)
    names = ["re", "im", "e_phonon", "e_electronic", "e_total"]
    status = ["ok" if math.isfinite(e) else "non-finite" if ok else "domain"
              for e, ok in zip(grid["e_total"].tolist(), grid["in_domain"].tolist())]
    assert (status.count("domain"), status.count("non-finite")) == (domain, non_finite)
    expected = oracle_csv([*names, "status"], [*(grid[name] for name in names), status])
    assert (tmp_path / "landscape.csv").read_bytes() == expected


def test_cli_landscape_deterministic_across_workers(tmp_path):
    args = ["landscape", "--reference", "double_well", "--set", "resolution=11"]
    assert main(args + ["-o", str(tmp_path / "a"), "--workers", "1"]) == 0
    assert main(args + ["-o", str(tmp_path / "b"), "--workers", "3"]) == 0
    csv_a = (tmp_path / "a" / "landscape.csv").read_bytes()
    csv_b = (tmp_path / "b" / "landscape.csv").read_bytes()
    assert csv_a == csv_b


def test_cli_landscape_resolution_one(tmp_path):
    rc = main([
        "landscape", "--reference", "double_well", "-o", str(tmp_path),
        "--set", "resolution=1",
    ])
    assert rc == 0
    lines = (tmp_path / "landscape.csv").read_text().splitlines()
    assert len(lines) == 2  # header + single center cell
    re_val, im_val = lines[1].split(",")[:2]
    assert float(re_val) == 0.0 and float(im_val) == 0.0


def test_cli_landscape_never_labels_a_non_finite_cell_ok(tmp_path):
    # a finite span whose outer cells overflow the phonon energy
    assert main(["landscape", "--reference", "double_well", "-o", str(tmp_path),
                 "--set", "re_min=-8e307", "--set", "re_max=8e307", "--set", "resolution=3"]) == 0
    header, *rows = (tmp_path / "landscape.csv").read_text().splitlines()
    assert header.endswith(",status") and len(rows) == 9
    statuses = []
    for row in rows:
        *cells, status = row.split(",")
        finite = all(math.isfinite(float(cell)) for cell in cells)
        assert (status == "ok") == finite and status in ("ok", "non-finite"), row
        statuses.append(status)
    assert statuses.count("ok") == 3  # the re = 0 column


def test_cli_landscape_metadata_embeds_config(tmp_path):
    assert main(["landscape", "--reference", "double_well", "-o", str(tmp_path),
                 "--set", "resolution=5"]) == 0
    meta = json.loads((tmp_path / "landscape.json").read_text())
    assert meta["schema"] == "peierls/landscape/v1"
    assert meta["config"]["resolution"] == 5
    assert meta["config"]["t"] == 0.015365533074576245


def test_cli_critical_points_decoupled(tmp_path):
    rc = main(["critical-points", "-o", str(tmp_path),
               "--set", "zeta=0", "--set", "kappa=0", "--set", "t=1.0"])
    assert rc == 0
    lines = (tmp_path / "critical_points.csv").read_text().splitlines()
    assert len(lines) == 2
    kind, re_val, im_val = lines[1].split(",")[:3]
    assert kind == "minimum"
    assert math.hypot(float(re_val), float(im_val)) < 1e-10


def test_cli_critical_points_reports_seeds_and_cusp(tmp_path):
    assert main(["critical-points", "--reference", "double_well", "-o", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "critical_points.json").read_text())
    assert meta["counts"] == {"minimum": 2, "saddle": 1, "marginal": 0}
    assert meta["seeds"] == {"tried": 17, "converged": 17, "skipped": 0, "deduplicated": 14}
    header, saddle, *_ = (tmp_path / "critical_points.csv").read_text().splitlines()
    assert header == "kind,re,im,gradient_norm,hessian_eig_low,hessian_eig_high"
    assert saddle.split(",")[0] == "saddle" and saddle.split(",")[4] == "-inf"


def test_cli_critical_points_metadata_reports_the_search(tmp_path):
    # the search's slope-kernel calls and the largest final gradient norm, outside `config`
    assert main(["critical-points", "--reference", "double_well", "-o", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "critical_points.json").read_text())
    cfg = load_config(reference_config_path("double_well"))
    points = find_critical_points(cfg.model_params(), cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    rows = [line.split(",") for line in (tmp_path / "critical_points.csv").read_text().splitlines()[1:]]
    assert meta["newton_evaluations"] == points.evaluations > meta["seeds"]["tried"]
    assert meta["max_gradient_norm"] == max(float(row[3]) for row in rows) < cfg.newton_tol
    assert "newton_evaluations" not in meta["config"] and "max_gradient_norm" not in meta["config"]


def test_cli_critical_points_at_large_zeta_warns_nothing(tmp_path):
    # far seeds' gradient norms overflow to inf; only the origin saddle remains
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["critical-points", "-o", str(tmp_path), "--set", "zeta=19"]) == 0
    meta = json.loads((tmp_path / "critical_points.json").read_text())
    assert meta["seeds"] == {"tried": 17, "converged": 5, "skipped": 12, "deduplicated": 4}
    assert (tmp_path / "critical_points.csv").read_text().splitlines()[1:] == ["saddle,0.0,0.0,0.0,-inf,4.0"]


def test_cli_critical_points_far_seeds_do_not_drop_the_points_found(tmp_path):
    # the ring of seeds at |z| = 300 overflows cosh(loc): its 8 seeds are skipped, and the points
    # the other 17 found are written exactly as the reference run writes them
    assert main(["critical-points", "--reference", "double_well", "-o", str(tmp_path / "ref")]) == 0
    assert main(["critical-points", "--reference", "double_well", "-o", str(tmp_path / "far"),
                 "--set", "seed_rings=0.05,0.12,300"]) == 0
    meta = json.loads((tmp_path / "far" / "critical_points.json").read_text())
    assert meta["seeds"] == {"tried": 25, "converged": 17, "skipped": 8, "deduplicated": 14}
    csv = [(tmp_path / run / "critical_points.csv").read_bytes() for run in ("ref", "far")]
    assert csv[0] == csv[1]


def test_cli_critical_points_overflowing_slope_prefactor_exits_2(tmp_path, capsys):
    # g = t exp(zeta^2 + kappa^2) overflows: the model parameters are rejected before the search,
    # even though the only seed sits at loc = 0, where the slope is 0 without g
    assert main(["critical-points", "-o", str(tmp_path), "--set", "zeta=30", "--set", "seed_rings=0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: effective coupling g = t exp(zeta^2 + kappa^2) is not finite at t=1.0, zeta=30.0, kappa=0.0\n"


def test_validate_curvature_gate(monkeypatch):
    import peierls.validate as validate

    report = validate.ValidationReport()
    validate._check_curvature(report)
    (check,) = report.checks
    assert check.name == "landscape-curvature" and check.passed and check.measured < 1e-7
    # a curvature off by 1e-5 relative must fail the gate
    kernel = validate._slope_kernel

    def off_kernel(params):
        slopes = kernel(params)
        return lambda loc: (slopes(loc)[0], 1.00001 * slopes(loc)[1])

    monkeypatch.setattr(validate, "_slope_kernel", off_kernel)
    report = validate.ValidationReport()
    validate._check_curvature(report)
    assert not report.checks[0].passed


def test_validate_landscape_gradient_fails_on_a_neighbour_outside_the_domain():
    import peierls.validate as validate

    # w = -22 brings the domain edge into the sampled square: a central-difference
    # neighbour of one sampled point lies outside, and its NaN must fail the gate
    params = load_config(reference_config_path("double_well"), overrides={"w": -22.0, "zeta": 2.0}).model_params()
    report = validate.ValidationReport()
    validate._check_landscape(report, params)
    parity, gradient = report.checks
    assert parity.passed and not gradient.passed and math.isnan(gradient.measured)


def test_validate_landscape_gradient_step_shrinks_next_to_the_cusp():
    import peierls.validate as validate

    # w = -40 narrows the domain to |loc| < ~3e-4; at loc = -1.3e-5 a fixed z-step of 1e-6
    # moves loc by 5.7e-6 across the Delta^2 ln Delta bend and misreads the gradient by 1.4e-6
    params = load_config(reference_config_path("double_well"), overrides={"w": -40.0, "zeta": 2.0}).model_params()
    im = 0.01
    re = (-1.3e-5 / (2.0 * math.sqrt(2.0)) - params.kappa * im) / params.zeta
    parity, gradient = validate._landscape_errors(params, np.array([[re, im]]))
    assert parity == 0.0 and gradient < 1e-8
    h = 1e-6
    e = energy_densities(params, [re + h, re - h, re, re], [im, im, im + h, im - h])["e_total"]
    fixed = np.array([(e[0] - e[1]) / (2 * h), (e[2] - e[3]) / (2 * h)])
    analytic = np.array(_gradient_and_hessian(params, _slope_kernel(params), re, im)[:2])
    assert np.linalg.norm(analytic - fixed) / max(1.0, np.linalg.norm(fixed)) > 1e-6


def test_validate_landscape_checks_fail_when_no_draw_is_in_the_domain(tmp_path, capsys):
    # at w = -200 the domain misses the sampled square: the draw stops after
    # 1,024 pairs and both landscape checks read NaN and fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["validate", "--reference", "double_well", "-o", str(tmp_path),
                   "--set", "zeta=2", "--set", "w=-200"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL landscape-parity: measured nan (threshold 1.0e-12)" in lines
    assert "FAIL landscape-gradient: measured nan (threshold 1.0e-06)" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 2

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    # strict JSON: the NaN measurements are written as null
    report = json.loads((tmp_path / "validation.json").read_text(), parse_constant=reject)["report"]
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("landscape-parity", "landscape-gradient"):
        assert (checks[name]["measured"], checks[name]["passed"]) == (None, False)


def assert_validate_passes(tmp_path, capsys, reference, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["validate", "--reference", reference, "-o", str(tmp_path), "--set", f"t={t}"])
    out, err = capsys.readouterr()
    assert rc == 0, [line for line in out.splitlines() if line.startswith("FAIL")]
    assert err == ""


@pytest.mark.parametrize("reference", ["double_well", "kink_dynamics"])
@pytest.mark.parametrize("t", ["1e5", "1e8", "1e200", "1e300"])
def test_validate_passes_at_large_t(tmp_path, capsys, reference, t):
    # the kink spectra scale with g ~ t and the landscape gradient with t: an absolute kink
    # error or a gradient norm through a sum of squares fails valid input from t = 1e5
    assert_validate_passes(tmp_path, capsys, reference, t)


@pytest.mark.parametrize("reference", ["double_well", "kink_dynamics"])
@pytest.mark.parametrize("t", ["1e-12", "1e-100", "1e-300"])
def test_validate_passes_at_small_t(tmp_path, capsys, reference, t):
    # the kink block's entries scale with g ~ t: a kernel cut of an absolute 1e-10 reads the
    # whole 3x3 block as kernel from t = 1e-11 down
    assert_validate_passes(tmp_path, capsys, reference, t)


def test_cli_spectrum_constant(tmp_path):
    rc = main(["spectrum", "--reference", "double_well", "-o", str(tmp_path),
               "--set", "q=1.0", "--set", "z_re=0.05", "--set", "z_im=0.05"])
    assert rc == 0
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert meta["proportionality_constant"] == pytest.approx(2.0, rel=1e-9)
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header == "index,real_space,mode_value"


def test_cli_spectrum_reports_its_error_against_the_analytic_bands(tmp_path):
    assert main(["spectrum", "--reference", "double_well", "-o", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert "max_band_error" not in meta["config"]
    config = load_config(reference_config_path("double_well"))
    params = config.model_params()
    m = mode_energies(params, CoherentAmplitude(config.z_re, config.z_im), np.arange(params.big_l))
    r = 2.0 * np.hypot(m.epsilon, m.delta)
    bands = np.sort(np.concatenate([-r, r]))
    real_space, mode_value = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1, usecols=(1, 2),
                                        unpack=True)
    assert np.array_equal(2.0 * mode_value, bands)  # the CSV's reprs round-trip
    assert meta["max_band_error"] == np.max(np.abs(real_space - 2.0 * mode_value))  # from the CSV alone
    assert meta["max_band_error"] <= 1e-12 * np.max(np.abs(bands))


def test_cli_spectrum_without_a_nonzero_mode_writes_a_null_constant(tmp_path):
    # at t = 1e-310 every mode value is below the 1e-300 cut, so no ratio is taken
    assert main(["spectrum", "--reference", "double_well", "-o", str(tmp_path), "--set", "t=1e-310"]) == 0
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert meta["proportionality_constant"] is None


def test_cli_spectrum_smallest_ring(tmp_path):
    # L = 1: both bonds join sites 0 and 1
    assert main(["spectrum", "--reference", "double_well", "-o", str(tmp_path), "--set", "big_l=1"]) == 0
    header, *rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert header == "index,real_space,mode_value" and len(rows) == 2


def test_cli_dynamics_fixed_point_constant_trajectory(tmp_path):
    rc = main(["dynamics", "--reference", "kink_dynamics", "-o", str(tmp_path),
               "--set", "x0=0", "--set", "v0=0", "--set", "steps=50", "--set", "settle_tol=0"])
    assert rc == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 51
    for row in rows:
        _, x, v, _ = row.split(",")
        assert abs(float(x)) < 1e-12 and abs(float(v)) < 1e-12


def test_cli_dynamics_e_total_is_total_density_at_z_half_x(tmp_path):
    assert main(["dynamics", "--reference", "kink_dynamics", "-o", str(tmp_path),
                 "--set", "x0=0.07", "--set", "steps=300"]) == 0
    params = load_config(reference_config_path("kink_dynamics")).model_params()
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 301
    for row in rows:
        _, x, _, e_total = map(float, row.split(","))
        expected = energy_densities(params, 0.5 * x, 0.5 * x)["e_total"]
        assert e_total == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "sets",
    [[], ["--set", "x0=0.03", "--set", "steps=40"], ["--set", "q=1.5", "--set", "w=-3", "--set", "x0=5"]],
    ids=["settled", "completed", "domain-exit-at-first-step"],
)
def test_cli_dynamics_metadata_counts_rk4_steps_and_settle_residuals(tmp_path, sets):
    assert main(["dynamics", "--reference", "kink_dynamics", "-o", str(tmp_path), *sets]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    meta = json.loads((tmp_path / "trajectory.json").read_text())
    assert meta["rk4_steps"] == len(rows) - 1
    assert "rk4_steps" not in meta["config"] and "settle_residuals" not in meta["config"]
    residuals = meta["settle_residuals"]
    if meta["rk4_steps"] == 0:
        assert residuals is None
        return
    assert residuals["abs_v"] == abs(float(rows[-1].split(",")[2]))
    tol = load_config(reference_config_path("kink_dynamics")).settle_tol
    settled = residuals["abs_v"] < tol and residuals["abs_dv_dt"] < tol
    assert settled == (meta["termination"] == "settled")


def test_cli_dynamics_non_finite_trajectory_exits_3(tmp_path, capsys):
    # at zeta = kappa = 0 the run from x0 = 1e300 grows past the largest float within 40 steps:
    # one numerical-error line, no traceback and no files
    out = tmp_path / "out"
    rc = main(["dynamics", "-o", str(out), "--set", "zeta=0", "--set", "kappa=0", "--set", "x0=1e300",
               "--set", "dt=0.5", "--set", "steps=5000"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "numerical error: trajectory became non-finite\n"
    assert not out.exists()


def test_cli_kink_spectrum_overflowing_z_exits_2_without_a_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["kink-spectrum", "--reference", "kink_dynamics", "-o", str(tmp_path), "--set", "z_re=1e308"])
    assert rc == 2
    assert "bonds g exp(+-loc) overflow" in capsys.readouterr().err


def test_cli_kink_propagate_non_finite_phonon_energy_exits_2_without_a_warning(tmp_path, capsys):
    # with zeta = kappa = 0 the bonds do not bound z, so the phonon energy does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["kink-propagate", "--reference", "kink_dynamics", "-o", str(tmp_path), "--set", "zeta=0",
                   "--set", "kappa=0", "--set", "z_re=1e200", "--set", "kink_steps=2"])
    assert rc == 2
    assert "phonon energy of z = (1e+200, " in capsys.readouterr().err


def test_cli_kink_propagate_without_a_wall_exits_2(tmp_path, capsys):
    # double_well sets no z, so every bond of its kink chain is g: there is no wall to propagate,
    # while the uniform chain's spectrum is still a valid result
    rc = main(["kink-propagate", "--reference", "double_well", "-o", str(tmp_path / "propagate")])
    assert rc == 2
    assert "z = (0.0, 0.0) makes every bond of the kink chain equal" in capsys.readouterr().err
    assert not (tmp_path / "propagate").exists()
    assert main(["kink-spectrum", "--reference", "double_well", "-o", str(tmp_path / "spectrum")]) == 0


@pytest.mark.parametrize("command", ["kink-spectrum", "kink-propagate"])
def test_cli_kink_lapack_failure_exits_3(tmp_path, capsys, monkeypatch, command):
    # a nonzero LAPACK info (no convergence) is a LinAlgError, a numerical failure
    import peierls.kink
    import peierls.model

    for module in (peierls.model, peierls.kink):  # model's dqds call, and kink's dbdsdc call
        monkeypatch.setattr(module, "_lapack", lambda name, n_args: lambda *args: args[-1].fill(1))
    rc = main([command, "--reference", "kink_dynamics", "-o", str(tmp_path), "--set", "kink_steps=2"])
    assert rc == 3
    assert "LAPACK info 1" in capsys.readouterr().err


def test_cli_spectrum_lapack_failure_exits_3(tmp_path, capsys, monkeypatch):
    # the ring's band reduction and dqds report failure the same way
    import peierls.model

    monkeypatch.setattr(peierls.model, "_lapack", lambda name, n_args: lambda *args: args[-1].fill(1))
    assert main(["spectrum", "--reference", "double_well", "-o", str(tmp_path)]) == 3
    assert "LAPACK info 1" in capsys.readouterr().err


def test_cli_kink_spectrum(tmp_path):
    rc = main(["kink-spectrum", "--reference", "kink_dynamics", "-o", str(tmp_path),
               "--set", "n_sites=80", "--set", "kink_site=40"])
    assert rc == 0
    meta = json.loads((tmp_path / "kink_spectrum.json").read_text())
    assert meta["in_gap_count"] >= 1
    assert meta["schema"] == "peierls/kink-spectrum/v1"


def test_cli_kink_propagate_small(tmp_path):
    rc = main(["kink-propagate", "--reference", "kink_dynamics", "-o", str(tmp_path),
               "--set", "n_sites=60", "--set", "kink_site=30",
               "--set", "kink_steps=20", "--set", "anchor_offset=0"])
    assert rc == 0
    meta = json.loads((tmp_path / "kink_trajectory.json").read_text())
    assert meta["termination"] == "completed"
    assert meta["relative_energy_drift"] < 1e-6
    assert meta["orthonormality_error"] < 1e-10
    assert meta["max_step_energy_change"] <= 1e-12
    header = (tmp_path / "kink_trajectory.csv").read_text().splitlines()[0]
    assert header == "t,re_z,im_z,kink_position,energy,n_anchor"


def test_cli_csv_cells_are_numbers(tmp_path):
    # every data cell parses with float(), except a schema's status column
    runs = [
        (["kink-propagate", "--set", "n_sites=60", "--set", "kink_site=30", "--set", "kink_steps=5"],
         "kink_trajectory.csv", {}),
        (["kink-spectrum", "--set", "n_sites=40", "--set", "kink_site=20"], "kink_spectrum.csv", {}),
        (["dynamics", "--set", "steps=20"], "trajectory.csv", {}),
        # w = -3 puts xi above 2, so part of this grid is out of the domain
        (["landscape", "--set", "resolution=9", "--set", "w=-3", "--set", "re_max=1.5"], "landscape.csv",
         {"status": {"ok", "domain"}}),
    ]
    for i, (argv, name, words) in enumerate(runs):
        out = tmp_path / str(i)
        assert main([argv[0], "--reference", "kink_dynamics", "-o", str(out), *argv[1:]]) == 0
        header, *rows = (out / name).read_text().splitlines()
        columns = header.split(",")
        assert rows
        for row in rows:
            for column, cell in zip(columns, row.split(","), strict=True):
                if column in words:
                    assert cell in words[column], (name, column, cell)
                else:
                    float(cell)
    assert "domain" in (tmp_path / "3" / "landscape.csv").read_text()


def test_cli_validate_passes_and_fault_injection(tmp_path, monkeypatch, capsys):
    assert main(["validate", "--reference", "kink_dynamics", "-o", str(tmp_path / "ok")]) == 0
    report = json.loads((tmp_path / "ok" / "validation.json").read_text())["report"]
    assert report["passed"] is True
    assert report["info"]["real-space-to-mode-constant"] == pytest.approx(2.0, abs=1e-12)
    # a printed closed form off by 0.1% must fail exactly one check
    printed = peierls.validate._paper_lambda
    monkeypatch.setattr(peierls.validate, "_paper_lambda", lambda p, mode: tuple(1.001 * v for v in printed(p, mode)))
    assert main(["validate", "--reference", "kink_dynamics", "-o", str(tmp_path / "bad")]) == 1
    bad = json.loads((tmp_path / "bad" / "validation.json").read_text())["report"]
    failed = [c["name"] for c in bad["checks"] if not c["passed"]]
    assert failed == ["lambda-printed-vs-matrix"]


def test_cli_validate_km1_agm_fault_injection(tmp_path, monkeypatch):
    # the slope kernel's K = ellipkm1(p), off by 1e-12 relative, must fail exactly one check
    km1 = peierls.validate.ellipkm1
    monkeypatch.setattr(peierls.validate, "ellipkm1", lambda p: (1.0 + 1e-12) * km1(p))
    assert main(["validate", "--reference", "double_well", "-o", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "validation.json").read_text())["report"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["elliptic-km1-agm"]


# the m lists of validate's elliptic-e-quadrature and elliptic-k-quadrature checks
QUADRATURE_MS = {0.5: np.arange(-1.0, 0.991, 0.25).tolist() + [0.99],
                 -0.5: np.arange(-1.0, 0.951, 0.25).tolist() + [0.95]}


def test_validate_trapezoid_matches_mpmath():
    # the E and K oracle is within 1e-15 of 40-digit values, so it is no weaker than QUADPACK (1.2e-14 on K)
    exact = {0.5: mpmath.ellipe, -0.5: mpmath.ellipk}
    with mpmath.workdps(40):
        for power, ms in QUADRATURE_MS.items():
            for m in ms:
                assert abs(peierls.validate._trapezoid(m, power) - float(exact[power](m))) <= 1e-15, (power, m)


@pytest.mark.parametrize("name, check", [("ellipe", "elliptic-e-quadrature"), ("ellipk", "elliptic-k-quadrature")])
def test_validate_quadrature_fault_injection(monkeypatch, name, check):
    # E or K off by 1e-9 relative must fail its quadrature check
    exact = getattr(peierls.validate, name)
    monkeypatch.setattr(peierls.validate, name, lambda m: (1.0 + 1e-9) * exact(m))
    report = peierls.validate.ValidationReport()
    peierls.validate._check_special(report)
    assert not next(c for c in report.checks if c.name == check).passed


def test_cli_rerun_from_metadata(tmp_path):
    # an artifact's metadata alone is enough to reproduce it
    out1 = tmp_path / "first"
    assert main(["landscape", "--reference", "double_well", "-o", str(out1),
                 "--set", "resolution=7"]) == 0
    meta = json.loads((out1 / "landscape.json").read_text())
    cfg_lines = []
    for key, value in meta["config"].items():
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        cfg_lines.append(f"{key} = {value}")
    rerun_cfg = tmp_path / "rerun.cfg"
    rerun_cfg.write_text("\n".join(cfg_lines) + "\n")
    out2 = tmp_path / "second"
    assert main(["landscape", "--config", str(rerun_cfg), "-o", str(out2)]) == 0
    assert (out1 / "landscape.csv").read_bytes() == (out2 / "landscape.csv").read_bytes()


# fields that set how much work a command does, each with a small range
SIZE_FIELDS = {"resolution": (1, 6), "big_l": (1, 16), "steps": (1, 40), "kink_steps": (1, 6),
               "n_sites": (3, 24), "seed_angles": (1, 4)}
# every run starts small; a drawn --set comes later and wins
SMALL = ["resolution=5", "big_l=8", "steps=30", "kink_steps=4", "n_sites=24", "kink_site=12", "seed_angles=2"]
FUZZ_TEXT = ["", "abc", "1.5", "0", "-1", "nan", "inf", "-inf", "1e308", "-1e-300", "0.05,0.1"]


@st.composite
def fuzz_setting(draw):
    key = draw(st.sampled_from([*sorted(f.name for f in fields(RunConfig)), "phonon_norm"]))
    if key in SIZE_FIELDS:
        value = draw(st.integers(*SIZE_FIELDS[key]).map(str) | st.sampled_from(["", "x", "0", "-2", "2.5", "nan"]))
    else:
        value = draw(st.floats(-2.0, 2.0).map(repr) | st.integers(-30, 30).map(str) | st.sampled_from(FUZZ_TEXT))
    return f"{key}={value}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(sorted(set(COMMANDS) - {"validate"})),
    reference=st.sampled_from([None, "double_well", "kink_dynamics"]),
    pairs=st.lists(fuzz_setting(), min_size=1, max_size=4),
)
@example(command="spectrum", reference=None, pairs=["zeta=30"])  # g overflows: exit 2
@example(command="kink-spectrum", reference="kink_dynamics", pairs=["z_re=1e308"])  # non-finite chain: exit 2
@example(command="critical-points", reference=None, pairs=["zeta=2.225073858507e-311"])  # zeta^2 underflows: exit 0
def test_cli_fuzz_exits_0_2_or_3(tmp_path_factory, command, reference, pairs):
    # any config gives a documented exit code, never a traceback; runs in-process
    argv = [command, "-o", str(tmp_path_factory.mktemp("fuzz"))]
    if reference is not None:
        argv += ["--reference", reference]
    for pair in [*SMALL, *pairs]:
        argv += ["--set", pair]
    assert main(argv) in (0, 2, 3)


# the kink_dynamics reference with every command's work cut to SMALL
SMALL_OPTIONS = ["--reference", "kink_dynamics", *(arg for pair in SMALL for arg in ("--set", pair))]


def without_timings(directory):
    """Each file's bytes, a metadata JSON's with its run-dependent ``timings_s`` taken out."""
    def content(path):
        if path.suffix != ".json":
            return path.read_bytes()
        meta = json.loads(path.read_text())
        del meta["timings_s"]
        return meta
    return {path.name: content(path) for path in directory.iterdir()}


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"validate"}))
def test_cli_options_before_the_command_write_the_same_files(tmp_path, command):
    # one flat parser: the options may come before the command, after it or on both sides
    assert main([command, *SMALL_OPTIONS, "-o", str(tmp_path / "after")]) == 0
    assert main([*SMALL_OPTIONS, "-o", str(tmp_path / "before"), command]) == 0
    assert main([*SMALL_OPTIONS[:2], command, *SMALL_OPTIONS[2:], "-o", str(tmp_path / "around")]) == 0
    written = without_timings(tmp_path / "after")
    assert any(name.endswith(".csv") for name in written)
    for form in ("before", "around"):
        assert without_timings(tmp_path / form) == written


def test_cli_set_values_do_not_carry_over_between_calls(tmp_path):
    reference = load_config(reference_config_path("kink_dynamics")).kink_steps
    assert reference != 3
    for name, sets in (("first", ["--set", "kink_steps=3"]), ("second", [])):
        assert main(["kink-spectrum", "--reference", "kink_dynamics", *sets, "-o", str(tmp_path / name)]) == 0
    first, second = (json.loads((tmp_path / name / "kink_spectrum.json").read_text())["config"]["kink_steps"]
                     for name in ("first", "second"))
    assert (first, second) == (3, reference)


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--reference", "kink_dynamics"]])
def test_cli_without_a_known_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: peierls")


def test_cli_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    choices = {choice for group in re.findall(r"\{([^}]*)\}", out) for choice in group.split(",")}
    assert set(COMMANDS) <= choices


@pytest.mark.parametrize("under_a_file", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_unusable_out_exits_2(tmp_path, capsys, command, under_a_file):
    # an --out that cannot be a directory is a config error with one line, not a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under_a_file else blocker
    rc = main([command, *SMALL_OPTIONS, "-o", str(out)])
    printed, err = capsys.readouterr()
    assert rc == 2
    assert printed == ""  # the files are written before anything is printed
    assert err.startswith(f"error: --out {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_metadata_carries_the_package_version(tmp_path, command):
    assert main([command, *SMALL_OPTIONS, "-o", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("*.json")
    meta = json.loads(path.read_text())
    assert meta["version"] == peierls.__version__
    assert "version" not in meta["config"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_metadata_times_config_compute_and_write(tmp_path, command):
    start = time.perf_counter()
    assert main([command, *SMALL_OPTIONS, "-o", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start
    (path,) = tmp_path.glob("*.json")
    meta = json.loads(path.read_text())
    timings = meta["timings_s"]
    assert sorted(timings) == ["compute", "config", "write"]
    assert all(math.isfinite(s) and s >= 0.0 for s in timings.values())
    # consecutive stages of the one call: together they fit inside its wall time
    assert sum(timings.values()) <= elapsed
    assert "timings_s" not in meta["config"]


def test_public_surface_keeps_the_printed_formulas_private():
    # the printed-formula cross-checks are validate's own helpers, not package API
    moved = {"paper_lambda", "lambda_discrepancy", "difference_operator", "zero_subspace", "elliptic_e", "elliptic_k"}
    assert not moved & set(vars(peierls))
    for name in ("algebra", "kink", "special"):
        assert not moved & set(importlib.import_module(f"peierls.{name}").__all__)
    # every exported name resolves: perfbench's tracer wraps exactly these
    modules = [info.name for info in pkgutil.iter_modules(peierls.__path__, "peierls.")]
    assert {"peierls.algebra", "peierls.kink", "peierls.special", "peierls.validate"} <= set(modules)
    for module in map(importlib.import_module, modules):
        for attr in getattr(module, "__all__", ()):
            getattr(module, attr)
