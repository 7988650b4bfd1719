"""Exit codes, output formats, and determinism of the command line tool."""

import json

from twinstripe import cli
from twinstripe.cli import main
from twinstripe.energy import total_energy
from twinstripe.model_core import Configuration, ModelParams, NonConvergenceError
from twinstripe.one_dim import optimal_even_m
from twinstripe.optimize import striped_candidate


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
