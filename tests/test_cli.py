"""Exit codes, output formats, and determinism of the command line tool."""

import argparse
import copy
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil

import numpy as np

import twinstripe
from twinstripe import cli
from twinstripe.cli import main
from twinstripe.energy import total_energy
from twinstripe.model_core import Configuration, ModelParams, NonConvergenceError
from twinstripe.one_dim import optimal_even_m
from twinstripe.optimize import MAX_BUILD_CORNERS, RelaxOptions, SweepGrid, striped_candidate


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
    cfg = Configuration.loads(state.read_text(encoding="utf-8"))
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
    for bad in ("nan", "1,inf", "0"):
        code, out, err = run_cli(
            capsys, "verify-chessboard", "--trials", "1", "--alphas", bad
        )
        assert code == 1 and not out
        assert "alphas" in err
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


def test_option_surface_is_pinned():
    parser = cli.build_parser()
    assert _option_strings(parser) == set()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _option_strings(sub) for name, sub in subs.choices.items()} == OPTIONS


# Defaulted parameters of every public function, and the option fields.
LIBRARY_TUNABLES = {
    "model_core.l2_distance": {"window"},
    "model_core.random_profile": {"period", "n_teeth", "max_teeth", "min_gap_frac"},
    "energy.h_half_sq_fourier": {"cutoff"},
    "energy.h_half_sq_realspace": {"quad_nodes", "images"},
    "energy.periodized_kernel": {"images", "rtol"},
    "energy.austenite_energy": {"beta"},
    "energy.l2_norm_sq": {"window"},
    "one_dim.make_w_m": {"y0", "a0"},
    "one_dim.cs_asymptotic_check": {"regime_factor"},
    "chessboard.juxtapose": {"z_start"},
    "chessboard.check_master_inequality": {"alphas", "integrate", "nodes"},
    "chessboard.bump_alpha_energy": {"nodes"},
    "chessboard.profile_alpha_energy": {"nodes"},
    "chessboard.kernel_identity_check": {"ds", "nodes"},
    "chessboard.random_segment": {"max_pieces"},
    "chessboard.verify_suite": {"trials", "seed", "alphas"},
    "localization.hilbert_transform": {"cutoff", "derivative", "period"},
    "localization.bmo_seminorm": {"min_width_frac"},
    "localization.classify_intervals": {"eta", "kappa"},
    "localization.classification_sensitivity": {"eta", "kappa"},
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
    assert flags + sum(len(names) for names in LIBRARY_TUNABLES.values()) == 87


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
