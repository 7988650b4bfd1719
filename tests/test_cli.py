"""Exit codes, output formats, and determinism of the command line tool."""

import argparse
import copy
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import twinstripe
from twinstripe import cli, model_core
from twinstripe.cli import main
from twinstripe.energy import total_energy
from twinstripe.model_core import Configuration, ModelParams, NonConvergenceError
from twinstripe.one_dim import optimal_even_m
from twinstripe.optimize import MAX_BUILD_CORNERS, RelaxOptions, SweepGrid, striped_candidate

from oracles import load_configuration


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_striped(tmp_path, beta=1e-2, epsilon=1e-3, stations=4):
    cfg = striped_candidate(ModelParams(beta, epsilon, 1.0, 1.0), stations=stations)
    path = tmp_path / "striped.json"
    path.write_text(cfg.dumps(), encoding="utf-8")
    return path, cfg


def test_optimal_stripes_emits_library_answer(capsys):
    code, out, _ = run_cli(
        capsys, "optimal-stripes", "--beta", "1", "--epsilon", "1e-4"
    )
    assert code == 0
    payload = json.loads(out)
    res = optimal_even_m(ModelParams(1.0, 1e-4, 1.0, 1.0))
    assert tuple(payload["m_star"]) == res.m_star
    assert payload["e_star"] == res.energy
    assert payload["m_continuous"] == res.m_continuous


def test_energy_matches_library_evaluation(tmp_path, capsys):
    path, cfg = write_striped(tmp_path)
    code, out, _ = run_cli(capsys, "energy", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    breakdown = total_energy(cfg)
    assert payload["total"] == breakdown.total
    assert payload["austenite"] == breakdown.austenite
    assert payload["strain"] == 0.0


def test_missing_config_exits_one_and_names_field(capsys):
    code, _, err = run_cli(capsys, "energy", "--config", "/no/such/file.json")
    assert code == 1
    assert "config" in err


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"stations": [0.0]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "energy", "--config", str(bad))
    assert code == 1
    assert "params" in err

    bad.write_text("not json at all", encoding="utf-8")
    code, _, err = run_cli(capsys, "energy", "--config", str(bad))
    assert code == 1
    assert "config" in err


def test_unknown_subcommand_and_bad_flag_exit_one(capsys):
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1 and err
    code, _, err = run_cli(capsys, "optimal-stripes", "--beta", "x", "--epsilon", "1")
    assert code == 1 and err


def test_relax_output_configuration_reparses(tmp_path, capsys):
    path, _ = write_striped(tmp_path, stations=3)
    out_file = tmp_path / "relaxed.json"
    code, _, _ = run_cli(
        capsys,
        "relax",
        "--config",
        str(path),
        "--max-iters",
        "5",
        "--output",
        str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    final = Configuration.from_json(payload["configuration"])
    # the striped state is already a fixed point of the move set
    assert payload["accepted_moves"] == 0
    assert payload["energy"]["total"] == payload["initial_energy"]
    assert Configuration.from_json(final.to_json()) == final


def test_branched_state_out_round_trips(tmp_path, capsys):
    state = tmp_path / "branched.json"
    code, out, _ = run_cli(
        capsys,
        "branched",
        "--beta",
        "1",
        "--epsilon",
        "1e-2",
        "--levels",
        "2",
        "--m0",
        "4",
        "--state-out",
        str(state),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m0"] == 4
    assert payload["m_fine"] == 16
    cfg = load_configuration(state.read_text(encoding="utf-8"))
    assert cfg.profiles[0].interface_count() == 16
    assert cfg.profiles[-1].interface_count() == 4
    assert payload["energy"]["total"] == total_energy(cfg).total


def test_branched_rejects_too_deep_or_too_fine_layouts(capsys):
    base = ["branched", "--beta", "1", "--epsilon", "1e-2"]
    # past the merge floor, refused before any count or array is formed
    code, out, err = run_cli(capsys, *base, "--levels", "1000000")
    assert code == 1 and not out
    assert "levels" in err and "Traceback" not in err
    # one count above the build cap, refused before the layout is built
    m0 = str(MAX_BUILD_CORNERS // 2 + 2)
    code, out, err = run_cli(capsys, *base, "--levels", "1", "--m0", m0)
    assert code == 1 and not out
    assert "levels" in err and str(MAX_BUILD_CORNERS) in err


def test_sweep_levels_max_below_one_exits_one(capsys):
    for bad in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "sweep", "--betas", "1", "--epsilons", "1e-3", "--levels-max", bad
        )
        assert code == 1 and not out
        assert "levels_max" in err


def test_sweep_scaling_unit_underflow_exits_one_naming_the_flags(capsys):
    # sqrt(beta epsilon / L) underflows to 0; the measured constants divide by it
    code, out, err = run_cli(capsys, "sweep", "--betas", "1e-300", "--epsilons", "1e-300")
    assert code == 1 and not out
    assert "betas" in err and "epsilons" in err and "Traceback" not in err


def test_sweep_levels_max_is_clipped_at_the_merge_floor(capsys):
    args = ["sweep", "--betas", "1e-3,1.0", "--epsilons", "1e-5,1e-3"]
    code, deep, _ = run_cli(capsys, *args, "--levels-max", "1000000000")
    assert code == 0
    code, forty, _ = run_cli(capsys, *args, "--levels-max", "40")
    assert code == 0
    assert deep == forty


def test_sweep_csv_header_and_thread_determinism(tmp_path, capsys):
    args = ["sweep", "--betas", "1e-3,1.0", "--epsilons", "1e-3", "--levels-max", "3"]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    code, _, _ = run_cli(capsys, *args, "--output", str(one))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--output", str(two))
    assert code == 0
    assert one.read_bytes() == two.read_bytes()
    lines = one.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "beta,epsilon,sigma,E_striped,E_branched,E_relaxed,winner,m_star"
    assert len(lines) == 3
    assert lines[1].split(",")[6] in {"striped", "branched", "degenerate"}


def test_sweep_json_format_reparses(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--betas",
        "1e-3",
        "--epsilons",
        "1e-3",
        "--levels-max",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["beta"] == 1e-3 and row["epsilon"] == 1e-3
    assert payload["c_striped"] > 0


def test_verify_chessboard_report_slacks(capsys):
    code, out, _ = run_cli(
        capsys, "verify-chessboard", "--trials", "10", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    for family in ("rp", "chessboard", "master"):
        assert payload[family]["count"] > 0
        assert payload[family]["min_slack"] >= -1e-9


def test_verify_chessboard_rejects_bad_alphas_and_trials(capsys):
    # screening lengths far beyond the segments are fine in closed form
    code, out, _ = run_cli(
        capsys, "verify-chessboard", "--trials", "3", "--alphas", "0.01"
    )
    assert code == 0
    assert json.loads(out)["chessboard"]["min_slack"] >= -1e-9
    # outside chessboard.ALPHA_RANGE the cell integrals overflow to NaN
    outside = ("1e103", "1e150", "1e300", "1e-78", "1e-80", "1e-300", "0.1,1e103")
    for bad in ("nan", "1,inf", "0") + outside:
        code, out, err = run_cli(
            capsys, "verify-chessboard", "--trials", "3", "--alphas", bad
        )
        assert code == 1 and not out, bad
        assert "alphas" in err and "Traceback" not in err
    # its ends give finite slacks
    for edge in ("1e-60", "1e60"):
        code, out, _ = run_cli(capsys, "verify-chessboard", "--trials", "3", "--alphas", edge)
        assert code == 0
        for family in ("rp", "chessboard", "master"):
            assert all(math.isfinite(v) for v in json.loads(out)[family].values()), edge
    for bad in ("0", "-2"):
        code, out, err = run_cli(capsys, "verify-chessboard", "--trials", bad)
        assert code == 1 and not out
        assert "trials" in err


def test_verify_chessboard_nonconvergence_exits_two(capsys, monkeypatch):
    def stalled(**kwargs):
        raise NonConvergenceError("stalled")

    monkeypatch.setattr(cli, "verify_suite", stalled)
    code, out, err = run_cli(capsys, "verify-chessboard", "--trials", "1")
    assert code == 2 and not out
    assert "converge" in err


def test_certify_striped_configuration(tmp_path, capsys):
    path, _ = write_striped(tmp_path, beta=1e-3, epsilon=1e-5, stations=5)
    code, out, _ = run_cli(capsys, "certify", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert abs(payload["excess"]) < 1e-10


def test_certify_rejects_bad_eta_and_kappa(tmp_path, capsys):
    path, _ = write_striped(tmp_path, beta=1e-3, epsilon=1e-5, stations=3)
    for name in ("eta", "kappa"):
        for bad in ("nan", "inf", "0", "-1"):
            code, out, err = run_cli(
                capsys, "certify", "--config", str(path), f"--{name}", bad
            )
            assert code == 1 and not out, (name, bad)
            assert f"{name} must be" in err, (name, bad, err)


# -- option surface ---------------------------------------------------------------

# Every option of every subcommand.  A new knob is a deliberate edit here.
OPTIONS = {
    "energy": {"--config", "--output"},
    "optimal-stripes": {"--beta", "--epsilon", "--length", "--height", "--output"},
    "relax": {"--config", "--max-iters", "--tol", "--topology", "--output"},
    "branched": {
        "--beta", "--epsilon", "--length", "--height", "--levels", "--m0",
        "--state-out", "--output",
    },
    "sweep": {
        "--betas", "--epsilons", "--compare", "--length", "--height", "--levels-max",
        "--relax-iters", "--relax-tol", "--format", "--output",
    },
    "verify-chessboard": {"--trials", "--seed", "--alphas", "--output"},
    "certify": {"--config", "--eta", "--kappa", "--output"},
}


def _option_strings(parser):
    return {
        opt
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        for opt in action.option_strings
    }


def test_main_builds_the_parser_once(capsys, monkeypatch):
    argvs = [
        ["optimal-stripes", "--beta", "1", "--epsilon", "1e-4"],
        ["verify-chessboard", "--trials", "2", "--seed", "5"],
        ["optimal-stripes", "--beta", "x", "--epsilon", "1"],
        ["verify-chessboard", "--trials", "2", "--seed", "5", "--alphas", "0.5"],
        ["optimal-stripes", "--beta", "1", "--epsilon", "1e-4"],
    ]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0]

    built = []
    build = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cached = [run_cli(capsys, *argv) for argv in argvs]
    assert len(built) == 1
    assert cached == fresh


def test_option_surface_is_pinned():
    parser = cli.build_parser()
    assert _option_strings(parser) == set()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _option_strings(sub) for name, sub in subs.choices.items()} == OPTIONS


# Defaulted parameters of every public function, and the option fields.
LIBRARY_TUNABLES = {
    "model_core.random_profile": {"period", "n_teeth", "max_teeth", "min_gap_frac"},
    "energy.h_half_sq_fourier": {"cutoff"},
    "one_dim.make_w_m": {"y0", "a0"},
    "chessboard.check_master_inequality": {"alphas"},
    "chessboard.verify_suite": {"trials", "seed", "alphas"},
    "localization.bmo_seminorm": {"min_width_frac"},
    "localization.classify_intervals": {"eta", "kappa"},
    "localization.certificate_check": {"eta", "kappa"},
    "optimize.branched_candidate": {"m0"},
    "optimize.phase_sweep": {"levels_max", "relax_opts"},
    "optimize.relax": {"history"},
    "optimize.striped_candidate": {"stations"},
    "cli.main": {"argv"},
    "optimize.RelaxOptions": {"max_iters", "tol_energy", "topology_moves"},
    "optimize.SweepGrid": {"beta_values", "epsilon_values", "compare"},
}


def _library_tunables():
    found = {}
    for info in pkgutil.iter_modules(twinstripe.__path__):
        module = importlib.import_module(f"twinstripe.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            params = inspect.signature(obj).parameters.values()
            defaulted = {p.name for p in params if p.default is not p.empty}
            if defaulted:
                found[f"{info.name}.{name}"] = defaulted
    for cls in (RelaxOptions, SweepGrid):
        found[f"optimize.{cls.__name__}"] = {f.name for f in dataclasses.fields(cls)}
    return found


def test_library_tunable_surface_is_pinned():
    assert _library_tunables() == LIBRARY_TUNABLES
    # the tunable count tracked in ROADMAP.md: CLI flags per subcommand
    # plus the library surface above
    flags = sum(len(opts) for opts in OPTIONS.values())
    assert flags + sum(len(names) for names in LIBRARY_TUNABLES.values()) == 66


def test_cutoff_flag_is_gone(tmp_path, capsys):
    path, _ = write_striped(tmp_path, stations=3)
    for argv in (
        ["energy", "--config", str(path)],
        ["relax", "--config", str(path), "--max-iters", "1"],
        ["branched", "--beta", "1", "--epsilon", "1e-2", "--levels", "1", "--m0", "4"],
        ["certify", "--config", str(path)],
    ):
        code, out, err = run_cli(capsys, *argv, "--cutoff", "10")
        assert code == 1 and not out, argv
        assert "--cutoff" in err


# -- malformed configuration JSON ------------------------------------------------


def _fuzz_paths(cfg):
    """Every field of a configuration dict, as a key path."""
    paths = [("params",), ("stations",), ("profiles",)]
    paths += [("params", k) for k in ("beta", "epsilon", "length_L", "height_h")]
    paths += [("stations", i) for i in range(len(cfg["stations"]))]
    for i, prof in enumerate(cfg["profiles"]):
        paths.append(("profiles", i))
        paths += [("profiles", i, k) for k in ("period", "offset", "initial_slope", "corners")]
        paths += [("profiles", i, "corners", j) for j in range(len(prof["corners"]))]
    return paths


def _wrong_type(value, rng):
    if isinstance(value, list):
        choices = ["x", None, True, 1.0, {}]
    elif isinstance(value, dict):
        choices = ["x", None, False, 1.0, []]
    else:
        choices = ["x", "1.0", None, True, [], {}]
    return choices[int(rng.integers(len(choices)))]


def test_malformed_config_fuzz_exits_one_naming_the_field(tmp_path, capsys):
    """Seeded single-field mutations of a valid configuration: non-finite,
    wrong type, missing, or a non-integral slope.  Each must end with exit
    status 1 and a message naming the field, never a traceback or output."""
    _, cfg = write_striped(tmp_path, stations=3)
    base = cfg.to_json()
    paths = _fuzz_paths(base)
    rng = np.random.default_rng(20101116)
    path = tmp_path / "mutated.json"
    commands = (["energy"], ["relax", "--max-iters", "1"], ["certify"])
    seen = set()
    for trial in range(160):
        keys = paths[int(rng.integers(len(paths)))]
        kinds = ["nonfinite", "type"]
        if isinstance(keys[-1], str):
            kinds.append("missing")
        if keys[-1] == "initial_slope":
            kinds += ["slope", "slope"]
        kind = kinds[int(rng.integers(len(kinds)))]
        data = copy.deepcopy(base)
        parent = data
        for k in keys[:-1]:
            parent = parent[k]
        if kind == "missing":
            del parent[keys[-1]]
        elif kind == "nonfinite":
            parent[keys[-1]] = [math.nan, math.inf, -math.inf][int(rng.integers(3))]
        elif kind == "type":
            parent[keys[-1]] = _wrong_type(parent[keys[-1]], rng)
        else:
            parent[keys[-1]] = [1.7, 0.5, -0.3, 2, 0, -2.0, 1.0 + 1e-12][int(rng.integers(7))]
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [*commands[trial % 3], "--config", str(path)]
        field = [k for k in keys if isinstance(k, str)][-1]
        where = f"{kind} at {keys}: {data if kind != 'missing' else keys}"
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out, where
        assert field in err, (where, err)
        assert "Traceback" not in err, where
        seen.add((kind, field))
    # the draw covers every kind of mutation and every field
    assert {k for k, _ in seen} == {"nonfinite", "type", "missing", "slope"}
    assert {f for _, f in seen} == {
        "params", "stations", "profiles", "beta", "epsilon", "length_L", "height_h",
        "period", "offset", "initial_slope", "corners",
    }


def test_reported_malformed_configs_name_their_field(tmp_path, capsys):
    _, cfg = write_striped(tmp_path, stations=3)
    path = tmp_path / "bad.json"
    cases = [
        (("stations",), [0.0, math.nan, 1.0], "stations[1]"),
        (("profiles", 1, "initial_slope"), 1.7, "initial_slope"),
        (("profiles",), "x", "profiles"),
        (("params", "beta"), "abc", "beta"),
    ]
    for keys, value, field in cases:
        data = cfg.to_json()
        parent = data
        for k in keys[:-1]:
            parent = parent[k]
        parent[keys[-1]] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "energy", "--config", str(path))
        assert code == 1 and not out
        assert field in err


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


# zeros, huge and tiny magnitudes, a subnormal, nan and infinities
EXTREMES = ["0", "-0", "1e300", "-1e300", "1e-300", "-1e-300", "5e-324"]
EXTREMES += ["nan", "-nan", "inf", "-inf"]


def fuzz_numeric_flags(capsys, argv, values, seed, extra=lambda flag, rng: []):
    """Run argv plus --flag=value for every value of every flag, in a seeded order.

    extra(flag, rng) gives more arguments for a run.  Each run ends with
    exit 0 and only finite numbers in its JSON output, or with exit 1
    naming the flag, never a traceback.  Returns the set of (flag, exit
    status) seen and the payloads of the runs that succeeded.
    """
    rng = np.random.default_rng(seed)
    draws = [(flag, v) for flag, vs in values.items() for v in vs]
    seen, payloads = set(), []
    for k in rng.permutation(len(draws)):
        flag, value = draws[k]
        args = [*argv, f"--{flag}={value}", *extra(flag, rng)]
        code, out, err = run_cli(capsys, *args)
        assert "Traceback" not in err, args
        if code == 0:
            payload = json.loads(out, parse_constant=lambda c: math.nan)
            assert _finite_numbers(payload), args
            payloads.append(payload)
        else:
            assert code == 1 and not out, args
            assert flag in err or flag.replace("-", "_") in err, (args, err)
        seen.add((flag, code))
    return seen, payloads


def test_relax_numeric_flag_fuzz_exits_zero_finite_or_one_naming_the_flag(tmp_path, capsys):
    """Every value of --max-iters and --tol (fuzz_numeric_flags), non-integer
    counts too.  No run has a budget of more than three sweeps."""
    _, cfg = write_striped(tmp_path, stations=3)
    path = tmp_path / "shifted.json"  # a start that relax moves away from
    path.write_text(cfg.replace_profile(1, cfg.profiles[1].translated(0.01)).dumps(), encoding="utf-8")
    values = {
        "max-iters": EXTREMES + ["1.5", "2.0", "-1", "0x2", "1", "3"],
        "tol": EXTREMES + ["1", "0.5e-10", "-1e-10"],
    }

    def budget(flag, rng):
        return [f"--max-iters={int(rng.integers(1, 4))}"] if flag == "tol" else []

    seen, payloads = fuzz_numeric_flags(
        capsys, ["relax", "--config", str(path)], values, 20101118, budget
    )
    assert seen == {("max-iters", 0), ("max-iters", 1), ("tol", 0), ("tol", 1)}
    assert any(payload["accepted_moves"] > 0 for payload in payloads)


# Counts and levels take only values refused before any work or at most 3.
COUNTS = ["-1", "0", "1", "2", "3", "1.5", "nan", "1e300", "0x2"]
MODEL_FLAGS = {
    "beta": EXTREMES + ["0.1", "1e-3"],
    "epsilon": EXTREMES + ["1e-3", "1e-5"],
    "length": EXTREMES + ["2", "0.5"],
    "height": EXTREMES + ["2", "0.5", "1e103"],
}


@pytest.mark.parametrize(
    "argv, values",
    [
        (["optimal-stripes", "--beta", "0.1", "--epsilon", "1e-3"], MODEL_FLAGS),
        (
            ["branched", "--beta", "0.1", "--epsilon", "1e-3", "--levels", "1"],
            {**MODEL_FLAGS, "m0": COUNTS + ["-2", "4", "1024", "2e3"], "levels": COUNTS},
        ),
        (
            ["sweep", "--betas", "0.1", "--epsilons", "1e-3", "--format", "json"],
            {
                "length": MODEL_FLAGS["length"],
                "height": MODEL_FLAGS["height"],
                "relax-tol": EXTREMES + ["1e-10"],
                "levels-max": COUNTS,
                "relax-iters": COUNTS,
            },
        ),
        (
            ["verify-chessboard", "--trials", "1"],
            {"seed": COUNTS + ["-7", str(2**64)], "trials": COUNTS},
        ),
        (["certify"], {"eta": EXTREMES + ["0.5", "2"], "kappa": EXTREMES + ["0.5", "2"]}),
    ],
    ids=["optimal-stripes", "branched", "sweep", "verify-chessboard", "certify"],
)
def test_numeric_flag_fuzz_exits_zero_finite_or_one_naming_the_flag(tmp_path, capsys, argv, values):
    """Every numeric flag of every subcommand but relax and energy
    (fuzz_numeric_flags); the model flags override the base ones."""
    if argv == ["certify"]:
        argv = ["certify", "--config", str(write_striped(tmp_path, beta=1e-3, epsilon=1e-5)[0])]
    seen, _ = fuzz_numeric_flags(capsys, argv, values, 20101119)
    assert seen == {(flag, code) for flag in values for code in (0, 1)}


def test_certify_output_is_strict_json(tmp_path, capsys):
    """A trace window without mismatch has no interpolation ratio: it is
    written as null, not as a bare NaN token."""
    path, _ = write_striped(tmp_path, beta=1e-3, epsilon=1e-5, stations=5)
    code, out, _ = run_cli(capsys, "certify", "--config", str(path))
    assert code == 0

    def refuse(token):
        raise ValueError(f"non-finite token {token}")

    payload = json.loads(out, parse_constant=refuse)
    assert None in [entry["interpolation_ratio"] for entry in payload["intervals"]]


# -- the JSON writer ----------------------------------------------------------------


def _checked_json_writer(monkeypatch) -> list:
    """Check every JSON text the program writes against json.dumps(indent=2)."""
    written, writer = [], model_core._json_dumps

    def checked(obj):
        text = writer(obj)
        assert text == json.dumps(obj, indent=2)
        written.append(obj)
        return text

    monkeypatch.setattr(cli, "_json_dumps", checked)
    monkeypatch.setattr(model_core, "_json_dumps", checked)
    return written


def test_every_subcommand_writes_what_json_dumps_writes(tmp_path, capsys, monkeypatch):
    written = _checked_json_writer(monkeypatch)
    path, _ = write_striped(tmp_path)
    runs = (
        ["energy", "--config", str(path)],
        ["optimal-stripes", "--beta", "1", "--epsilon", "1e-4"],
        ["relax", "--config", str(path), "--max-iters", "2"],
        ["branched", "--beta", "1", "--epsilon", "1e-2", "--levels", "2",
         "--state-out", str(tmp_path / "state.json")],
        ["sweep", "--betas", "0.01,1", "--epsilons", "1e-3", "--compare",
         "striped,branched,relaxed", "--format", "json"],
        ["verify-chessboard", "--trials", "2"],
        ["certify", "--config", str(path)],
    )
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and not err, argv
        assert out == json.dumps(written[-1], indent=2) + "\n"
    assert len(written) == 1 + len(runs) + 1  # and the start file and the branched state


def test_bench_ops_write_what_json_dumps_writes(tmp_path, capsys, monkeypatch):
    # one seeded round of each benchmark workload: its configuration files
    # and every op's payload (sweep ops asked for JSON instead of CSV)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    written = _checked_json_writer(monkeypatch)
    for name in ("relax", "sweep", "verify", "certify"):
        _, (ops,) = workloads.build(name, 77, 1, tmp_path)
        for op in ops:
            if "--config" in op.argv:
                text = Path(op.argv[op.argv.index("--config") + 1]).read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text), indent=2)
            argv = op.argv + (["--format", "json"] if name == "sweep" else [])
            before = len(written)
            assert run_cli(capsys, *argv)[0] == 0, argv
            assert len(written) == before + 1
