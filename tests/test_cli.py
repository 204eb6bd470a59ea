"""Command-line interface: parsing, subcommands, reports, round trips."""

import builtins
import collections
import csv
import io
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmc_ldp import (
    Measure,
    PathGrid,
    Potential,
    StateSpace,
    apply_hamiltonian,
    barrel_radius,
    cli,
    dual_check,
    evolve_law,
    lagrangian,
    path_action,
    pre_lagrangian,
    relative_entropy,
    resolvent_matrix,
    transition_matrix,
    v_apply,
    validate_generator,
)
from ctmc_ldp.cli import build_parser, load_model, load_report, main, read_path_csv
from ctmc_ldp.errors import ToolkitError
from ctmc_ldp.hamiltonian import _hamiltonian_raw
from conftest import random_chain

MODELS = Path(__file__).resolve().parent.parent / "models"
ABSORBING = str(MODELS / "absorbing.json")
SYMMETRIC = str(MODELS / "symmetric.json")
RING = str(MODELS / "ring3.json")

# paths on the two states a, b of SYMMETRIC
STATIONARY_PATH = "t,a,b\n0,0.5,0.5\n0.5,0.5,0.5\n1,0.5,0.5\n"
DRIFTING_PATH = "t,a,b\n0,0.5,0.5\n0.5,0.6,0.4\n1,0.7,0.3\n"
FAST_RATES = [[0.0, 9271.7, 7845.6], [128.3, 0.0, 98.1], [8274.7, 1103.7, 0.0]]


def _write_model(tmp_path, rates):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"states": [f"s{i}" for i in range(len(rates))],
                                "rates": rates}))
    return str(path)


def strict_loads(text):
    """``json.loads`` that refuses Infinity, -Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


class TestLoadModel:
    def test_round_trip(self):
        gen, mu0, doc = load_model(ABSORBING)
        assert gen.space.labels == ("a", "b")
        assert np.allclose(gen.Q, [[-1.0, 1.0], [0.0, 0.0]])
        assert np.allclose(mu0.p, [1.0, 0.0])
        assert "description" in doc

    def test_missing_initial_defaults_uniform(self, tmp_path, capsys):
        doc = {"states": ["x", "y"], "rates": [[0, 2.0], [0.5, 0]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        _, mu0, _ = load_model(path)
        assert np.allclose(mu0.p, [0.5, 0.5])
        assert "uniform" in capsys.readouterr().err

    def test_negative_rate_exits_3(self, tmp_path, capsys):
        doc = {"states": ["x", "y"], "rates": [[0, -1.0], [0.5, 0]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code = main(["check", "--model", str(path)])
        assert code == 3
        assert "negative rate" in capsys.readouterr().err

    def test_parse_error_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"states": ["x", "y"],\n  "rates": [[0, }')
        code = main(["check", "--model", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "--model", "/nonexistent/m.json"]) == 2


class TestCheck:
    def test_two_state_model_passes(self, tmp_path, capsys):
        code = main(["check", "--model", SYMMETRIC, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = load_report(tmp_path / "check_report.json")
        assert report["outputs"]["failed"] == 0

    def test_ring_model_passes(self, tmp_path):
        assert main(["check", "--model", RING, "--out", str(tmp_path)]) == 0

    def test_absorbing_model_passes(self, tmp_path):
        assert main(["check", "--model", ABSORBING, "--out", str(tmp_path)]) == 0

    def test_fast_model_passes(self, tmp_path, capsys):
        # rates in the thousands: the Hamiltonian formulas differ by 6e-11
        # from rounding alone, which is 2e-16 of the terms they sum
        code = main(["check", "--model", _write_model(tmp_path, FAST_RATES),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "10/10 checks passed" in capsys.readouterr().out

    def test_model_without_jumps_skips_the_barrel_row(self, tmp_path, capsys):
        # all rates 0: no barrel radius, so its row is left out, and the
        # other nine checks pass
        code = main(["check", "--model", _write_model(tmp_path, [[0.0, 0.0], [0.0, 0.0]]),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "9/9 checks passed" in capsys.readouterr().out
        rows = load_report(tmp_path / "check_report.json")["outputs"]["checks"]
        assert len(rows) == 9 and all(row["pass"] for row in rows)
        assert not any("barrel" in row["name"] for row in rows)

    def test_perturbed_hamiltonian_fails(self, tmp_path, capsys, monkeypatch):
        exact = cli.apply_hamiltonian
        monkeypatch.setattr(cli, "apply_hamiltonian", lambda gen, f: Potential(
            gen.space, exact(gen, f).f * (1.0 + 1e-9)))
        code = main(["check", "--model", _write_model(tmp_path, FAST_RATES),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL  two Hamiltonian formulas agree" in capsys.readouterr().out


def reference_checks(gen):
    """The battery one draw at a time, through the public functions: the
    stream order and the rows ``cli._invariant_checks`` must reproduce."""
    rng = np.random.default_rng(0)
    n = gen.size
    Q = gen.Q

    t, s = 0.37, 0.81
    lhs = transition_matrix(gen, t + s).P
    rhs = transition_matrix(gen, t).P @ transition_matrix(gen, s).P
    yield "semigroup law P(t+s) = P(t)P(s)", float(np.abs(lhs - rhs).max()), 1e-9

    lam = 0.5
    J = resolvent_matrix(gen, lam)
    res = np.abs((np.eye(n) - lam * Q) @ J - np.eye(n)).max()
    yield "resolvent residual (I - lam Q)J = I", float(res), 1e-10
    yield "resolvent rows sum to one", float(np.abs(J.sum(axis=1) - 1).max()), 1e-10

    worst = 0.0
    for _ in range(20):
        mu = Measure(gen.space, rng.dirichlet(np.ones(n)))
        out = evolve_law(gen, mu, float(rng.uniform(0, 3)))
        worst = max(worst, abs(out.p.sum() - 1.0), -min(out.p.min(), 0.0))
    yield "evolved laws stay probabilities", worst, 1e-10

    worst = 0.0
    for _ in range(20):
        mu = Measure(gen.space, rng.dirichlet(np.ones(n)))
        q = rng.dirichlet(np.ones(n)) + 1e-3
        nu = Measure(gen.space, q / q.sum())
        gap = relative_entropy(mu, nu) - 0.5 * np.abs(mu.p - nu.p).sum() ** 2
        worst = max(worst, -gap)
    yield "entropy dominates squared l1 distance", worst, 1e-12

    worst = 0.0
    for _ in range(10):
        f = Potential(gen.space, rng.uniform(-2, 2, n))
        direct = apply_hamiltonian(gen, f).f
        other = np.exp(-f.f) * (Q @ np.exp(f.f))
        scale = np.maximum(1.0, np.exp(-f.f) * (np.abs(Q) @ np.exp(f.f)))
        worst = max(worst, float((np.abs(direct - other) / scale).max()))
    yield "two Hamiltonian formulas agree", worst, 1e-12

    worst = 0.0
    for _ in range(10):
        g = Potential(gen.space, rng.uniform(-2, 2, n))
        worst = max(worst, -float(pre_lagrangian(gen, g).f.min()))
    yield "pre-Lagrangian is nonnegative", worst, 0.0

    worst = 0.0
    for _ in range(5):
        q = rng.dirichlet(np.ones(n)) + 1e-2
        mu = Measure(gen.space, q / q.sum())
        f = Potential(gen.space, rng.uniform(-1.5, 1.5, n))
        worst = max(worst, dual_check(gen, mu, f))
    yield "Hamiltonian/Lagrangian duality", worst, 1e-6

    f = Potential(gen.space, rng.uniform(-1, 1, n))
    t1, t2 = 0.4, 0.9
    chained = v_apply(gen, v_apply(gen, f, t2), t1).f
    joint = v_apply(gen, f, t1 + t2).f
    yield "nonlinear semigroup law", float(np.abs(chained - joint).max()), 1e-8

    try:
        radius = barrel_radius(gen)
        G = rng.uniform(-radius, radius, size=(2000, n)).T
        hvals = _hamiltonian_raw(gen.off_diagonal[..., None], gen.exit_rates[:, None], G)
        yield "Hamiltonian bounded on the barrel", \
            float(np.abs(hvals).max()) - 1.0, 1e-12
    except ToolkitError:
        pass


def assert_battery_matches_reference(gen):
    rows, expected = list(cli._invariant_checks(gen)), list(reference_checks(gen))
    assert [row[::2] for row in rows] == [row[::2] for row in expected]
    for (name, got, tol), (_, want, _) in zip(rows, expected):
        assert (got <= tol) == (want <= tol), name
        assert abs(got - want) <= 1e-10, name


class TestBattery:
    @pytest.mark.parametrize("model", ["absorbing", "symmetric", "ring3", "fast"])
    def test_model_rows_match_the_reference(self, model):
        gen = validate_generator(["s0", "s1", "s2"], FAST_RATES) if model == "fast" \
            else load_model(MODELS / f"{model}.json")[0]
        assert_battery_matches_reference(gen)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_chain_rows_match_the_reference(self, seed, kind):
        assert_battery_matches_reference(
            random_chain(np.random.default_rng(seed), kind, n_max=6))

    def test_stacks_hold_the_reference_draws(self, monkeypatch):
        # a pairing or order slip can leave the residuals unchanged (the
        # entropy gap reads 0 for any pairs): the stacks themselves must
        # be the reference loop's draws, row by row
        gen, calls = load_model(RING)[0], collections.defaultdict(list)
        for module, name in ((cli, "_relative_entropy"), (cli, "_dual_residuals"),
                             (sys.modules[__name__], "relative_entropy"),
                             (sys.modules[__name__], "dual_check")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real: (
                calls[name].append(args), real(*args))[1])
        list(cli._invariant_checks(gen)), list(reference_checks(gen))
        (mu, nu), = calls["_relative_entropy"]
        assert np.abs(np.stack([mu, nu], axis=1) - [
            [m.p, v.p] for m, v in calls["relative_entropy"]]).max() <= 1e-15
        (_, mus, fs), = calls["_dual_residuals"]
        assert np.abs(mus - [m.p for _, m, _ in calls["dual_check"]]).max() <= 1e-15
        assert np.array_equal(fs, [f.f for _, _, f in calls["dual_check"]])

    def test_flat_dirichlet_draws_the_same_stream(self):
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for shape in (3, (4, 5), (2, 3, 2)):
            n = shape if isinstance(shape, int) else shape[-1]
            want = theirs.dirichlet(np.ones(n), None if shape == n else shape[:-1])
            assert np.abs(cli._flat_dirichlet(ours, shape) - want).max() <= 1e-15
            assert ours.uniform() == theirs.uniform()

    def test_perturbed_lagrangian_fails(self, tmp_path, capsys, monkeypatch):
        exact = lagrangian._lagrangian_cells

        def scaled(*args, **kwargs):
            status, f, value, *rest = exact(*args, **kwargs)
            return status, f, value * (1.0 + 1e-5), *rest

        monkeypatch.setattr(lagrangian, "_lagrangian_cells", scaled)
        code = main(["check", "--model", _write_model(tmp_path, FAST_RATES),
                     "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL  Hamiltonian/Lagrangian duality" in out
        assert "9/10 checks passed" in out


class TestDispatch:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_subcommand_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # a rebinding of cli.cmd_rate, as a tracer makes, is what runs next
        argv = ["rate", "--model", SYMMETRIC, "--t", "0.3",
                "--target", "0.6,0.4", "--out", str(tmp_path)]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_rate",
                            lambda args, gen, mu0: seen.append(args.t) or (0, {}))
        assert main(argv) == 0
        assert seen == [0.3]
        assert load_report(tmp_path / "rate_report.json")["outputs"] == {}

    def test_options_do_not_carry_over(self, tmp_path):
        def digest(*extra):
            assert main(["check", "--model", SYMMETRIC, *extra,
                         "--out", str(tmp_path)]) == 0
            return load_report(tmp_path / "check_report.json")["inputs_digest"]

        plain = digest()
        assert digest("--tol", "1e-3") != plain
        assert digest() == plain

    @pytest.mark.parametrize("argv", [[], ["check"], ["semigroup"], ["rate"],
                                      ["bridge"], ["action"], ["simulate"],
                                      ["verify-ldp"]])
    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args([*argv, "--help"])
        assert texts[0] == texts[1] == capsys.readouterr().out
        assert texts[0].startswith(f"usage: {' '.join(['ctmc-ldp', *argv])}")


class TestSemigroup:
    def test_errors_decrease(self, tmp_path, capsys):
        code = main(["semigroup", "--model", SYMMETRIC, "--t", "1.0",
                     "--out", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path / "semigroup_report.json")
        errs = [row["sup_error"] for row in report["outputs"]["errors"]]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3

    def test_potential_option_sets_the_tilt(self, tmp_path):
        code = main(["semigroup", "--model", RING, "--t", "0.7",
                     "--potential=-1,0.5,2", "--out", str(tmp_path)])
        assert code == 0
        gen, _, _ = load_model(RING)
        exact = v_apply(gen, Potential(gen.space, [-1.0, 0.5, 2.0]), 0.7).f
        report = load_report(tmp_path / "semigroup_report.json")
        assert report["outputs"]["exact"] == exact.tolist()


class TestRate:
    def test_value_matches_library(self, tmp_path):
        code = main(["rate", "--model", ABSORBING, "--t", "0.5",
                     "--target", "1,0", "--out", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path / "rate_report.json")
        assert report["outputs"]["value"] == pytest.approx(0.5, abs=1e-8)
        assert report["outputs"]["attained"] is False

    def test_zero_tol_is_the_default_tolerance(self, tmp_path):
        # --tol 0 stands for 1e-9: the same solve as no --tol at all
        argv = ["rate", "--model", RING, "--t", "0.5", "--target", "0.5,0.3,0.2"]
        outputs = []
        for extra in ([], ["--tol", "0"], ["--tol", "1e-9"]):
            assert main([*argv, *extra, "--out", str(tmp_path)]) == 0
            outputs.append(load_report(tmp_path / "rate_report.json")["outputs"])
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]["value"] == pytest.approx(0.07452270682, abs=1e-10)


class TestBridgeAndAction:
    def test_zero_cost_bridge_and_csv_round_trip(self, tmp_path):
        # bridge to the evolved law has zero cost; re-reading the CSV
        # reproduces the reported action
        gen, mu0, _ = load_model(SYMMETRIC)
        from ctmc_ldp import evolve_law
        target = evolve_law(gen, mu0, 0.7)
        code = main(["bridge", "--model", SYMMETRIC, "--t", "0.7",
                     "--grid", "64", "--out", str(tmp_path),
                     "--target", ",".join(str(v) for v in target.p)])
        assert code == 0
        report = load_report(tmp_path / "bridge_report.json")
        assert report["outputs"]["action"] < 1e-6

        code = main(["action", "--model", SYMMETRIC, "--out", str(tmp_path),
                     "--path", str(tmp_path / "bridge_path.csv")])
        assert code == 0
        action_report = load_report(tmp_path / "action_report.json")
        assert action_report["outputs"]["action"] == pytest.approx(
            report["outputs"]["action"], abs=1e-9)

    def test_action_of_skewed_bridge_round_trip(self, tmp_path):
        code = main(["bridge", "--model", RING, "--t", "0.8", "--grid", "128",
                     "--target", "0.2,0.4,0.4", "--out", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path / "bridge_report.json")
        gen, _, _ = load_model(RING)
        grid = read_path_csv(tmp_path / "bridge_path.csv", gen.space)
        recomputed = path_action(gen, grid).value
        assert recomputed == pytest.approx(report["outputs"]["action"], abs=1e-9)

    def test_action_names_the_infeasible_cell(self, tmp_path, capsys):
        # nothing returns to a on the absorbing chain
        path = tmp_path / "p.csv"
        path.write_text("t,a,b\n0,0.5,0.5\n0.5,0.5,0.5\n1,0.6,0.4\n")
        code = main(["action", "--model", ABSORBING, "--path", str(path),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "infeasible at cell 1" in capsys.readouterr().out
        outputs = load_report(tmp_path / "action_report.json")["outputs"]
        assert outputs["action"] == "inf" and outputs["infeasible_cell"] == 1


class TestSimulate:
    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", ABSORBING, "--t", "1.0"])
        assert exc.value.code == 2

    def test_reproducible_outputs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        out1.mkdir(), out2.mkdir()
        for out in (out1, out2):
            code = main(["simulate", "--model", ABSORBING, "--t", "1.0",
                         "--grid", "10", "--n", "500", "--seed", "42",
                         "--out", str(out)])
            assert code == 0
        csv1 = (out1 / "empirical_path.csv").read_bytes()
        csv2 = (out2 / "empirical_path.csv").read_bytes()
        assert csv1 == csv2
        r1 = load_report(out1 / "simulate_report.json")
        r2 = load_report(out2 / "simulate_report.json")
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    @pytest.mark.parametrize("grid, seed", [("0", "42"), ("10", "-3")])
    def test_invalid_parameter_exits_3(self, tmp_path, capsys, grid, seed):
        code = main(["simulate", "--model", ABSORBING, "--t", "1.0",
                     "--grid", grid, "--seed", seed, "--out", str(tmp_path)])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestVerifyLdp:
    def test_observable_benchmark(self, tmp_path, capsys):
        code = main(["verify-ldp", "--model", ABSORBING, "--t", "0.5",
                     "--radius", "0.5", "--n", "20,40,80", "--reps", "4000",
                     "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        est = json.loads((tmp_path / "decay_estimate.json").read_text())
        assert est["slope"] > 0
        report = load_report(tmp_path / "verify_ldp_report.json")
        assert report["outputs"]["reference_rate"] == pytest.approx(
            0.04585, abs=2e-4)

    def test_zero_reference_rate_leaves_the_relative_gap_undefined(
            self, tmp_path, capsys):
        # the ball holds the evolved law, so the reference rate is 0: a
        # relative gap is undefined whatever the fitted slope, and the
        # absolute gap is printed instead
        code = main(["verify-ldp", "--model", RING, "--t", "0.5",
                     "--target", "0.34,0.36,0.30", "--radius", "0.2",
                     "--n", "10,20,40", "--reps", "400", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        out = strict_loads(
            (tmp_path / "verify_ldp_report.json").read_text())["outputs"]
        assert out["reference_rate"] == 0.0 and out["slope"] != 0.0
        assert out["relative_gap"] == "nan"
        text = capsys.readouterr().out
        assert "rel. gap" not in text
        assert f"abs. gap = {abs(out['slope']):.3g}" in text

    def test_hopeless_event_reports_insufficient_sampling(self, tmp_path,
                                                          capsys):
        code = main(["verify-ldp", "--model", ABSORBING, "--t", "0.5",
                     "--radius", "0.05", "--n", "50,100", "--reps", "200",
                     "--seed", "7", "--out", str(tmp_path)])
        assert code == 1
        assert "too rare" in capsys.readouterr().err

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        code = main(["verify-ldp", "--model", ABSORBING, "--t", "0.5",
                     "--radius", "0.5", "--n", "20,40", "--reps", "100",
                     "--seed", "-3", "--out", str(tmp_path)])
        assert code == 3
        assert "seed" in capsys.readouterr().err


def _in_a_subprocess(argv, tmp_path):
    """Run ``python -m ctmc_ldp.cli`` in a subprocess with a 30 s timeout, so
    that a run that never returns fails instead of hanging the suite."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "ctmc_ldp.cli", *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=30)


def _exits_3_in_a_subprocess(argv, tmp_path):
    """Run the CLI in a subprocess; it must exit 3 with one ``error:`` line,
    which is returned."""
    run = _in_a_subprocess(argv, tmp_path)
    assert run.returncode == 3
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    return run.stderr


def test_module_entry_point_writes_the_report(tmp_path):
    # the one module entry point README documents
    run = _in_a_subprocess(["check", "--model", RING], tmp_path)
    assert run.returncode == 0, run.stderr
    assert load_report(tmp_path / "check_report.json")["outputs"]["failed"] == 0


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["semigroup", "--model", SYMMETRIC, "--n", "abc"],
        ["verify-ldp", "--model", ABSORBING, "--t", "0.5", "--seed", "1",
         "--n", "10,x"],
        ["simulate", "--model", ABSORBING, "--t", "1.0", "--seed", "1",
         "--n", "100,200"],
    ])
    def test_bad_count_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --n" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "model without rates", "path header", "path labels", "path of one row",
        "path nodes not uniform", "target entry count"])
    def test_invalid_input_exits_3(self, tmp_path, capsys, case):
        # readable input that fails validation: one error line, exit 3
        model, path = tmp_path / "m.json", tmp_path / "p.csv"
        model.write_text(json.dumps({"states": ["a", "b"], "initial": [1, 0]}))
        path.write_text({
            "path header": "time,a,b\n0,0.5,0.5\n1,0.5,0.5\n",
            "path labels": "t,a,c\n0,0.5,0.5\n1,0.5,0.5\n",
            "path of one row": "t,a,b\n0,0.5,0.5\n",
            "path nodes not uniform": "t,a,b\n0,0.5,0.5\n0.2,0.5,0.5\n1,0.5,0.5\n",
        }.get(case, STATIONARY_PATH))
        argv = {"model without rates": ["check", "--model", str(model)],
                "target entry count": ["rate", "--model", RING, "--t", "0.5",
                                       "--target", "0.5,0.5"]}.get(
            case, ["action", "--model", SYMMETRIC, "--path", str(path)])
        code = main([*argv, "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        *([sub, "--t", t] for sub in ("rate", "bridge", "semigroup", "verify-ldp",
                                      "simulate") for t in ("nan", "inf", "1e400")),
        ["rate", "--t", "1e308"], ["verify-ldp", "--t", "1", "--radius", "nan"]],
        ids=" ".join)
    def test_non_finite_time_or_radius_exits_3(self, tmp_path, argv):
        # in a subprocess with a timeout, so that a run that never returns
        # (simulate at --t inf keeps every copy due before the last node)
        # fails instead of hanging the suite
        extra = {"rate": ["--target", "0.2,0.3,0.5"], "bridge": ["--target", "0.2,0.3,0.5"],
                 "verify-ldp": ["--seed", "1"], "simulate": ["--seed", "1"]}
        _exits_3_in_a_subprocess(
            [argv[0], "--model", RING, *argv[1:], *extra.get(argv[0], [])], tmp_path)

    @pytest.mark.parametrize("argv", [
        # c = 1, so V(t) succeeds and the resolvent's step count n t is what
        # fails: past floats at 1e308, past the exact integers at 1e300
        "semigroup symmetric --t 1e308", "semigroup symmetric --t 1e300",
        "semigroup symmetric --t 1.2e15 --n 8",
        # expected jumps over the sampler's bound: these used to run for minutes
        "simulate ring3 --t 1e6 --n 300 --seed 1", "verify-ldp ring3 --t 1e4 --seed 1",
        # 9e7 jumps, under that bound, but as many rounds for the one copy:
        # about 20 minutes
        "simulate ring3 --n 1 --t 5e7 --seed 1"])
    def test_work_past_its_bound_exits_3(self, tmp_path, argv):
        sub, model, *rest = argv.split()
        err = _exits_3_in_a_subprocess(
            [sub, "--model", str(MODELS / f"{model}.json"), *rest], tmp_path)
        bound = "2^53" if sub == "semigroup" else "rounds" if "--n 1 " in argv else "jumps"
        assert bound in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("sub", ["check", "rate", "bridge", "action"])
    def test_inadmissible_tol_exits_3(self, tmp_path, capsys, sub, tol):
        # a gradient tolerance must be positive and finite (0 stands for the
        # default), a check slack nonnegative and finite; nothing is written
        path = tmp_path / "p.csv"
        path.write_text(DRIFTING_PATH)
        argv = {"check": ["--model", RING],
                "rate": ["--model", RING, "--t", "0.5", "--target", "0.5,0.3,0.2"],
                "bridge": ["--model", RING, "--t", "0.5", "--target", "0.5,0.3,0.2"],
                "action": ["--model", SYMMETRIC, "--path", str(path)]}[sub]
        out = tmp_path / "out"
        code = main([sub, *argv, "--tol", tol, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(r"tol\w* must be \w+ and finite, got", err)
        assert list(out.iterdir()) == []

    def test_one_state_model_exits_3(self, tmp_path, capsys):
        code = main(["check", "--model", _write_model(tmp_path, [[0.0]]),
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: a state space needs at least two states\n"

    def test_bad_target_exits_2(self, tmp_path, capsys):
        code = main(["rate", "--model", ABSORBING, "--t", "0.5",
                     "--target", "a,b,c", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --target") and err.count("\n") == 1

    @pytest.mark.parametrize("row, why", [("0.5,abc,0.5", "'abc'"),
                                          ("0.5,0.5", "2 fields")])
    def test_bad_path_row_exits_2(self, tmp_path, capsys, row, why):
        path = tmp_path / "p.csv"
        path.write_text(f"t,a,b\n0,0.5,0.5\n{row}\n1,0.5,0.5\n")
        code = main(["action", "--model", SYMMETRIC, "--path", str(path),
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and why in err and err.count("\n") == 1

    @pytest.mark.parametrize("case", [
        "string rate", "ragged rates", "states not a list", "states a string",
        "string initial", "model is a directory", "path is a directory",
        "model not UTF-8", "path not UTF-8"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, case):
        # exit code 1 means failed checks: an input that cannot be read or
        # parsed exits 2 with one error line, not a traceback
        model, path = tmp_path / "m.json", tmp_path / "p.csv"
        doc = {"states": ["a", "b"], "rates": [[0, 1], [1, 0]], "initial": [1, 0]}
        doc.update({"string rate": {"rates": [["x", 1], [1, 0]]},
                    "ragged rates": {"rates": [[0, 1], [1]]},
                    "states not a list": {"states": 5},
                    "states a string": {"states": "ab"},
                    "string initial": {"initial": ["p", "q"]}}.get(case, {}))
        model.write_text(json.dumps(doc))
        path.write_text(DRIFTING_PATH)
        if case == "model is a directory":
            model = tmp_path
        elif case == "path is a directory":
            path = tmp_path
        elif case == "model not UTF-8":
            model.write_bytes(b'{"states": ["\xe9", "b"], "rates": [[0, 1], [1, 0]]}')
        elif case == "path not UTF-8":
            path.write_bytes(b"t,a,b\n0,0.5,0.5\n1,0.5,\xff\n")
        argv = ["action", "--path", str(path)] if "path" in case else ["check"]
        code = main([*argv, "--model", str(model), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["out is a file", "out below a file",
                                      "report is a directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, case):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = {"out is a file": afile, "out below a file": afile / "sub",
               "report is a directory": tmp_path / "out"}[case]
        (tmp_path / "out" / "check_report.json").mkdir(parents=True)
        code = main(["check", "--model", RING, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        ["semigroup", "--model", SYMMETRIC],
        ["simulate", "--model", ABSORBING, "--t", "1.0", "--seed", "1"],
        ["verify-ldp", "--model", ABSORBING, "--t", "0.5", "--seed", "1"],
    ])
    def test_tol_only_where_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


# argv, seed; "{csv}" stands for a path file written by the test
REPORT_CASES = {
    "check": (["check", "--model", RING], None),
    "semigroup": (["semigroup", "--model", SYMMETRIC, "--t", "0.5"], None),
    "rate": (["rate", "--model", SYMMETRIC, "--t", "0.3",
              "--target", "0.6,0.4"], None),
    "rate-inf": (["rate", "--model", ABSORBING, "--mu", "0,1",
                  "--target", "1,0", "--t", "0.5"], None),
    "bridge": (["bridge", "--model", RING, "--t", "0.5", "--grid", "32",
                "--target", "0.2,0.4,0.4"], None),
    "action": (["action", "--model", SYMMETRIC, "--path", "{csv}"], None),
    "simulate": (["simulate", "--model", ABSORBING, "--t", "1.0",
                  "--grid", "10", "--n", "200", "--seed", "42"], 42),
    "verify-ldp": (["verify-ldp", "--model", ABSORBING, "--t", "0.5",
                    "--radius", "0.5", "--n", "20,40", "--reps", "500",
                    "--seed", "7"], 7),
}


class TestReports:
    @pytest.mark.parametrize("case", REPORT_CASES)
    def test_digest_stable_across_reruns(self, tmp_path, case):
        csv_path = tmp_path / "path.csv"
        csv_path.write_text(DRIFTING_PATH)
        argv, seed = REPORT_CASES[case]
        argv = [str(csv_path) if a == "{csv}" else a for a in argv]
        name = argv[0].replace("-", "_") + "_report.json"
        texts = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main([*argv, "--out", str(out)]) == 0
            texts.append((out / name).read_text())
        report = strict_loads(texts[0])
        inputs = [a for flag, a in zip(argv, argv[1:])
                  if flag in ("--model", "--path")]
        assert report["command"] == [argv[0], *inputs]
        assert report["seed"] == seed
        wall = re.compile(r'"wall_time_s": [^,\n]*')
        assert wall.sub("", texts[0]) == wall.sub("", texts[1])

    def test_infinite_rate_written_as_strings(self, tmp_path):
        main([*REPORT_CASES["rate-inf"][0], "--out", str(tmp_path)])
        outputs = strict_loads(
            (tmp_path / "rate_report.json").read_text())["outputs"]
        assert outputs["value"] == outputs["gradient_norm"] == "inf"

    def test_report_bytes_are_golden(self, tmp_path):
        # non-finite floats as strings, NumPy scalars and arrays as plain
        # values, keys sorted, two-space indent, ASCII escapes, one newline
        cli._write_json(tmp_path / "r.json", {
            "b": np.float64(0.25), "a": [np.inf, -np.inf, np.nan],
            "c": {"n": np.int64(3), "ok": np.bool_(True),
                  "v": np.array([1.5, 2.0]), "e": []},
            "s": "xé", "t": (np.float32(0.5), None)})
        assert (tmp_path / "r.json").read_bytes() == (
            b'{\n  "a": [\n    "inf",\n    "-inf",\n    "nan"\n  ],\n'
            b'  "b": 0.25,\n  "c": {\n    "e": [],\n    "n": 3,\n'
            b'    "ok": true,\n    "v": [\n      1.5,\n      2.0\n    ]\n'
            b'  },\n  "s": "x\\u00e9",\n  "t": [\n    0.5,\n    null\n  ]\n}\n')

    def test_path_csv_bytes_are_golden(self, tmp_path):
        # times to 12 and laws to 17 significant digits, subnormals included
        grid = PathGrid(StateSpace(("a", "b")), 0.0, 1.0,
                        [[0.5, 0.5], [0.1, 0.9], [1 / 3, 2 / 3], [5e-324, 1.0]])
        cli.write_path_csv(tmp_path / "p.csv", grid)
        assert (tmp_path / "p.csv").read_bytes() == (
            b"t,a,b\n0,0.5,0.5\n0.333333333333,0.10000000000000001,0.90000000000000002\n"
            b"0.666666666667,0.33333333333333331,0.66666666666666663\n"
            b"1,4.9406564584124654e-324,1\n")

    def test_digest_covers_path_file(self, tmp_path):
        path = tmp_path / "path.csv"

        def digest(text):
            path.write_text(text)
            assert main(["action", "--model", SYMMETRIC, "--path", str(path),
                         "--out", str(tmp_path)]) == 0
            return load_report(tmp_path / "action_report.json")["inputs_digest"]

        first = digest(STATIONARY_PATH)
        assert digest(STATIONARY_PATH) == first
        assert digest(DRIFTING_PATH) != first

    def test_each_input_file_read_once(self, tmp_path, monkeypatch):
        # the digest covers the bytes that were parsed: a second read could
        # see a file rewritten in between
        model, path = tmp_path / "model.json", tmp_path / "path.csv"
        model.write_bytes(Path(SYMMETRIC).read_bytes())
        path.write_text(DRIFTING_PATH)
        reads, real = collections.Counter(), io.open

        def counting(file, *args, **kwargs):
            reads[str(file)] += 1
            return real(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        for argv in (["check"], ["action", "--path", str(path)]):
            reads.clear()
            assert main([*argv, "--model", str(model),
                         "--out", str(tmp_path / "out")]) == 0
            assert reads[str(model)] == 1
            assert reads[str(path)] == (argv[0] == "action")


def _grid(K):
    """A K-cell path on two states whose rows are not all alike."""
    rows = np.full((K + 1, 2), 0.5)
    rows[::2] = [1 / 3, 2 / 3]
    return PathGrid(StateSpace(("a", "b")), 0.0, 1.0, rows)


class TestWriter:
    @pytest.mark.parametrize("old, new", [("x" * 5000 + "\n", "é short\n"),
                                          ("short\n", "é" + "y" * 5000 + "\n")],
                             ids=["long to short", "short to long"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "f"
        cli._write_text(path, old)
        cli._write_text(path, new)
        assert path.read_bytes() == new.encode("utf-8")

    def test_csv_rewrite_leaves_no_stale_rows(self, tmp_path):
        cli.write_path_csv(tmp_path / "fresh.csv", _grid(1))
        cli.write_path_csv(tmp_path / "p.csv", _grid(60))
        cli.write_path_csv(tmp_path / "p.csv", _grid(1))
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_new_file_gets_the_mode_of_open_w(self, tmp_path):
        old = os.umask(0o002)  # keeps the group write bit of 0o666
        try:
            cli._write_text(tmp_path / "new", "x\n")
            with open(tmp_path / "ref", "w", newline="\n") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {0o666 & ~0o002}
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    def test_writers_never_truncate_at_open(self, tmp_path, monkeypatch):
        # a truncation to zero frees the file's blocks before the rewrite
        flags, real = [], os.open

        def recording(path, flag, *args, **kwargs):
            flags.append(flag)
            return real(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        for _ in range(2):  # a new file, then a rewrite
            cli._write_json(tmp_path / "r.json", {"a": 1.5})
            cli.write_path_csv(tmp_path / "p.csv", _grid(3))
        assert len(flags) == 4 and not any(f & os.O_TRUNC for f in flags)


def reference_rows(text):
    """The row-by-row parse that ``read_path_csv`` did before it converted
    every cell in one NumPy call."""
    reader = csv.reader(io.StringIO(text, newline=None))
    next(reader)
    return np.array([[float(v) for v in row] for row in filter(None, reader)])


# entries of a law but its last: the ones the writer must carry exactly, or any
_ENTRY = st.sampled_from([0.0, 5e-324, 1 / 3]) | st.floats(0.0, 1 / 3)


class TestPathCsvRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), K=st.integers(1, 60), data=st.data(),
           t0=st.integers(-1000, 1000), span=st.integers(1, 10**6))
    def test_write_then_read_is_bitwise(self, tmp_path_factory, n, K, data, t0, span):
        head = st.lists(_ENTRY, min_size=n - 1, max_size=n - 1).filter(
            lambda row: sum(row) <= 1.0)
        head = np.array(data.draw(st.lists(head, min_size=K + 1, max_size=K + 1)))
        rows = np.column_stack([head, 1.0 - head.sum(axis=1)])
        # end times that 12 significant digits carry exactly
        grid = PathGrid(StateSpace(tuple("abcde"[:n])), t0 / 100,
                        (10 * t0 + span) / 1000, rows)
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        cli.write_path_csv(path, grid)
        back = read_path_csv(path, grid.space)
        assert back.node_times.tobytes() == grid.node_times.tobytes()
        assert back.measures.tobytes() == grid.measures.tobytes()

    @pytest.mark.parametrize("text", [
        DRIFTING_PATH.replace("\n", "\r\n"),
        't,a,b\n0,"0.5",0.5\n0.5,0.6," 0.4"\n1,0.7,0.3\n',
        DRIFTING_PATH + "\n\n\n",
        "t,a,b\r\n0,0.5,0.5\r\n\r\n0.5,0.6,0.4\n1,0.7,0.3\r\n\r\n",
    ], ids=["CRLF", "quoted cells", "trailing blank lines", "mixed"])
    def test_pinned_parses_match_the_reference(self, text):
        grid = read_path_csv("p.csv", StateSpace(("a", "b")), text.encode())
        table = reference_rows(text)
        assert grid.measures.tobytes() == table[:, 1:].tobytes()
        assert (grid.t0, grid.t1, grid.K) == (table[0, 0], table[-1, 0], len(table) - 1)
