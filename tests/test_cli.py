"""End-to-end CLI runs: exit codes, report shape, determinism."""

import json
from itertools import product

import pytest

from corpus import SHORT_TILES, enumerate_solutions
from freeops import cli
from freeops import reduction, resourcegraph
from freeops.exact import matrix_units
from freeops.pcp import PCPInstance, verify_solution

CLASSIC = "1|101\n10|00\n011|11\n"
TRIVIAL = "0|0\n"
IMPOSSIBLE = "0|1\n"


def write_instance(tmp_path, text, name="inst.pcp"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv):
    return cli.main(argv)


def load(path):
    return json.loads(path.read_text())


def normalized(report: dict) -> str:
    trimmed = dict(report)
    trimmed.pop("wall_time_s", None)
    return json.dumps(trimmed, sort_keys=True)


# --- verify-free ---------------------------------------------------------------


def test_verify_free_ok(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify-free", "--max-len", "8", "--out", str(out)])
    assert code == 0
    report = load(out)
    assert report["outcome"]["word_count"] == 510
    assert report["outcome"]["collisions"] == []
    assert report["outcome"]["scalar_words"] == []


def test_verify_free_detects_engineered_collision(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "verify-free",
            "--axis-b",
            "0,0,-1",
            "--force",
            "--max-len",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 11
    report = load(out)
    assert "01" in report["outcome"]["scalar_words"]


def test_verify_free_rejects_bad_params(tmp_path):
    code = run(["verify-free", "--cos", "1/2", "--max-len", "2"])
    assert code == 2
    code = run(["verify-free", "--cos", "0.5", "--max-len", "2"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-free", "--max-len", "3"],
        ["compile", "--instance", "@"],
        ["membership", "--instance", "@", "--depth", "2"],
        ["reach", "--instance", "@", "--depth", "1", "--to", "basis:1"],
        ["monotones", "--instance", "@", "--depth", "1"],
        ["diff", "--instance", "@", "--depth", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_rotation_values_take_either_form(tmp_path, argv):
    # argparse reads a token like -3/5 as an option unless it is joined
    # with "="; every subcommand with rotation flags takes both forms.
    inst = write_instance(tmp_path, CLASSIC)
    argv = [inst if a == "@" else a for a in argv]
    flags = [("--cos", "-3/5"), ("--sin", "-4/5"), ("--axis-a", "0,0,-1"), ("--axis-b", "-1,0,0")]
    runs = []
    for form in ([f for pair in flags for f in pair], [f"{f}={v}" for f, v in flags]):
        out = tmp_path / f"{len(runs)}.json"
        runs.append((run(argv + form + ["--out", str(out)]), normalized(load(out))))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 10)
    assert load(out)["config"]["rotation"] == {
        "cos": "-3/5", "sin": "-4/5", "axis_a": ["0", "0", "-1"], "axis_b": ["-1", "0", "0"]
    }


# --- solve-pcp ----------------------------------------------------------------------


def test_solve_pcp_found(tmp_path):
    inst = write_instance(tmp_path, CLASSIC)
    out = tmp_path / "r.json"
    code = run(["solve-pcp", "--instance", inst, "--depth", "6", "--out", str(out)])
    assert code == 0
    assert load(out)["outcome"]["witness"] == [1, 3, 2, 3]


def test_solve_pcp_exhausted(tmp_path):
    inst = write_instance(tmp_path, IMPOSSIBLE)
    code = run(["solve-pcp", "--instance", inst, "--depth", "8"])
    assert code == 10


def test_solve_pcp_missing_file(tmp_path):
    code = run(["solve-pcp", "--instance", str(tmp_path / "nope"), "--depth", "3"])
    assert code == 2


def test_solve_pcp_empty_instance(tmp_path, capsys):
    inst = write_instance(tmp_path, "# no tiles\n\n")
    assert run(["solve-pcp", "--instance", inst, "--depth", "3"]) == 2
    assert capsys.readouterr().err == "error: no tiles in instance\n"


def test_solve_pcp_parse_error(tmp_path):
    inst = write_instance(tmp_path, "0|2\n")
    code = run(["solve-pcp", "--instance", inst, "--depth", "3"])
    assert code == 2


# --- compile --------------------------------------------------------------------------


def test_compile_bundle(tmp_path):
    inst = write_instance(tmp_path, "0|100\n")
    out = tmp_path / "bundle.json"
    code = run(["compile", "--instance", inst, "--out", str(out)])
    assert code == 0
    bundle = load(out)["outcome"]
    assert bundle["instance"]["tiles"] == [["0", "100"]]
    assert list(bundle["operators"]) == ["E1", "R1"]
    assert bundle["rotation"]["cos"] == "3/5"


def test_ignored_flags_rejected(tmp_path):
    inst = write_instance(tmp_path, "0|100\n")
    for argv in (
        ["compile", "--instance", inst, "--budget", "5"],
        ["solve-pcp", "--instance", inst, "--depth", "2", "--workers", "2"],
        ["diff", "--instance", inst, "--depth", "2", "--workers", "2"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2


# --- membership --------------------------------------------------------------------------


def test_membership_found_with_oracle_agreement(tmp_path):
    inst = write_instance(tmp_path, CLASSIC)
    out = tmp_path / "r.json"
    code = run(
        ["membership", "--instance", inst, "--depth", "8", "--out", str(out)]
    )
    assert code == 0
    report = load(out)
    assert report["outcome"]["statuses_agree"] is True
    assert report["outcome"]["membership"]["extracted"] == [1, 3, 2, 3]
    assert report["outcome"]["oracle"]["witness"] == [1, 3, 2, 3]


def test_membership_exhausted(tmp_path):
    inst = write_instance(tmp_path, IMPOSSIBLE)
    code = run(["membership", "--instance", inst, "--depth", "8"])
    assert code == 10


def test_membership_structured_mode(tmp_path):
    inst = write_instance(tmp_path, CLASSIC)
    out = tmp_path / "r.json"
    code = run(
        [
            "membership",
            "--instance",
            inst,
            "--depth",
            "8",
            "--mode",
            "structured",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert load(out)["outcome"]["membership"]["mode"] == "structured"


def test_membership_unsolvable_cancelling_pair_is_exhausted(tmp_path):
    # 0|01 + 01|0 has no tile solution; an encoding that lets H_i G_i cancel
    # a tile-index block found the scalar word H1 G1 H2 G2 here.
    inst = write_instance(tmp_path, "0|01\n01|0\n")
    for mode in ("generic", "structured"):
        out = tmp_path / f"{mode}.json"
        argv = ["membership", "--instance", inst, "--depth", "8", "--mode", mode]
        assert run(argv + ["--out", str(out)]) == 10
        outcome = load(out)["outcome"]
        assert outcome["statuses_agree"] is True
        assert outcome["membership"]["depth_reached"] == 8


def test_two_tile_sweep_agrees_with_the_tile_oracle(tmp_path):
    """All 2,304 ordered pairs of short tiles at depth 6, in both modes, run
    through the membership handler: no run is cut by the budget, every run
    agrees with the tile oracle, and every witness has the length of the
    shortest solution (by enumeration) and solves the instance."""
    assert len(SHORT_TILES) ** 2 == 2304
    path = tmp_path / "pair.pcp"
    parser = cli.build_parser()
    solvable = 0
    for tiles in product(SHORT_TILES, repeat=2):
        path.write_text("".join(f"{top}|{bottom}\n" for top, bottom in tiles))
        shortest = min((len(w) for w in enumerate_solutions(tiles, 6)), default=None)
        solvable += shortest is not None
        for mode in ("generic", "structured"):
            args = parser.parse_args(
                ["membership", "--instance", str(path), "--depth", "6", "--mode", mode]
            )
            code, _, _, outcome, _ = cli.handler(args.command)(args)
            result = outcome["membership"]
            assert not (result.truncated or outcome["oracle"].truncated)
            assert outcome["statuses_agree"] is True, (tiles, mode)
            assert code == (10 if shortest is None else 0), (tiles, mode)
            if shortest is not None:
                assert len(result.witness) == result.depth_reached == shortest, (tiles, mode)
                assert verify_solution(PCPInstance(tiles), result.extracted)
    assert 0 < solvable < 2304


def test_membership_degenerate_tile_errors(tmp_path):
    inst = write_instance(tmp_path, "0|0\n|\n")
    code = run(["membership", "--instance", inst, "--depth", "2"])
    assert code == 2


def test_membership_rejects_depth_below_one(tmp_path, capsys):
    # The shortest witness, R1 on a matching tile, has one letter; depth 0
    # is rejected by the search itself and writes no report.
    inst = write_instance(tmp_path, "1|1\n")
    out = tmp_path / "r.json"
    for mode in ("generic", "structured"):
        argv = ["membership", "--instance", inst, "--depth", "0", "--mode", mode]
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: max_depth must be at least 1\n"
        assert not out.exists()
    for mode in ("generic", "structured"):
        argv = ["membership", "--instance", inst, "--depth", "1", "--mode", mode]
        assert run(argv + ["--out", str(out)]) == 0
        outcome = load(out)["outcome"]
        assert outcome["statuses_agree"] is True
        assert outcome["membership"]["witness"] == ["R1"]


@pytest.mark.parametrize(
    "exc",
    [
        ArithmeticError("inexact division"),
        RuntimeError("digest collision"),
        MemoryError(),
    ],
)
def test_internal_failures_exit_2(monkeypatch, capsys, exc):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_monotones", failing)
    code = run(["monotones", "--graph", "demo"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.strip() != "error:"
    assert "Traceback" not in captured.err


def test_importing_the_cli_builds_no_parser():
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = textwrap.dedent(
        """
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        import freeops.cli
        print(len(built))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_runs_a_handler_patched_after_the_parser_is_built(monkeypatch, capsys):
    assert run(["monotones", "--graph", "demo"]) == 0
    capsys.readouterr()
    patched = lambda args: (cli.EXIT_COLLISION, {}, {}, {"patched": True}, {})  # noqa: E731
    monkeypatch.setattr(cli, "_cmd_monotones", patched)
    assert run(["monotones", "--graph", "demo"]) == cli.EXIT_COLLISION
    assert json.loads(capsys.readouterr().out)["outcome"] == {"patched": True}


def test_membership_mismatch_alarm(tmp_path, monkeypatch):
    # force a fake Found against an unsolvable oracle: the wiring must trip
    inst = write_instance(tmp_path, IMPOSSIBLE)
    real = reduction.membership_search

    def fake(gens, depth, mode="generic", node_budget=0):
        out = real(gens, 2, mode=mode)
        return reduction.MembershipOutcome(
            status=reduction.FOUND,
            mode=out.mode,
            witness=("R1",),
            witness_damping=None,
            extracted=None,
            depth_reached=1,
            nodes_expanded=1,
        )

    monkeypatch.setattr(cli.reduction, "membership_search", fake)
    code = run(["membership", "--instance", inst, "--depth", "4"])
    assert code == 12


def _half_damping_target(monkeypatch):
    """A target at half the witness's damping."""
    real = reduction.make_target
    monkeypatch.setattr(reduction, "make_target", lambda damping: real(damping / 2))


def _one_wrong_unit_image(monkeypatch):
    """The witness's reset maps E_01 where it maps E_00, so that its images
    are still the two distinct ones of a reset and only one unit's is wrong."""
    real = reduction.ChannelElement.apply_to_matrix
    e00, e01 = matrix_units(4)[:2]

    def corrupted(ch, m):
        return real(ch, e00 if ch.reset and ch.label and m == e01 else m)

    monkeypatch.setattr(reduction.ChannelElement, "apply_to_matrix", corrupted)


@pytest.mark.parametrize(
    "mode, fault",
    [
        pytest.param(mode, fault, id=mode + suffix)
        for fault, suffix in ((_half_damping_target, ""), (_one_wrong_unit_image, "-one-unit"))
        for mode in ("generic", "structured")
    ],
)
def test_membership_witness_cross_check_failure_is_an_error(
    tmp_path, monkeypatch, capsys, mode, fault
):
    # the found witness fails the Choi check
    inst = write_instance(tmp_path, CLASSIC)
    out = tmp_path / "r.json"
    fault(monkeypatch)
    argv = ["membership", "--instance", inst, "--depth", "8", "--mode", mode]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: witness channel is not the target\n"
    assert not out.exists()


def test_membership_budget_cut_is_inconclusive(tmp_path):
    # the structured search completes depth 3 (3 + 9 + 27 expansions) and
    # is cut in depth 4, while the oracle finds the solution after 15
    inst = write_instance(tmp_path, CLASSIC)
    out = tmp_path / "r.json"
    argv = ["membership", "--instance", inst, "--depth", "10", "--mode", "structured"]
    argv += ["--budget", "50"]
    assert run(argv + ["--out", str(out)]) == 10
    outcome = load(out)["outcome"]
    assert outcome["membership"]["truncated"] is True
    assert outcome["oracle"]["status"] == "found"
    assert outcome["statuses_agree"] is None


def test_membership_oracle_budget_cut_is_inconclusive(tmp_path, monkeypatch):
    inst = write_instance(tmp_path, CLASSIC)
    out = tmp_path / "r.json"

    def cut(inst, depth, node_budget=0):
        return cli.pcp.SearchOutcome(cli.pcp.EXHAUSTED, None, 0, 0, truncated=True)

    monkeypatch.setattr(cli.pcp, "solve_bounded", cut)
    argv = ["membership", "--instance", inst, "--depth", "8", "--out", str(out)]
    assert run(argv) == 10
    outcome = load(out)["outcome"]
    assert outcome["membership"]["status"] == "found"
    assert outcome["statuses_agree"] is None


# --- reach ------------------------------------------------------------------------------


def test_reach_finds_target(tmp_path):
    inst = write_instance(tmp_path, TRIVIAL)
    out = tmp_path / "r.json"
    dot = tmp_path / "g.dot"
    code = run(
        [
            "reach",
            "--instance",
            inst,
            "--depth",
            "2",
            "--from",
            "spread",
            "--to",
            "target:1/4",
            "--dot",
            str(dot),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load(out)
    assert report["outcome"]["reach"]["status"] == "reachable"
    assert len(report["outcome"]["reach"]["path"]) == 2
    assert dot.read_text().startswith("digraph reach {")


def test_reach_unsolvable_not_reachable(tmp_path):
    inst = write_instance(tmp_path, IMPOSSIBLE)
    code = run(
        [
            "reach",
            "--instance",
            inst,
            "--depth",
            "2",
            "--from",
            "spread",
            "--to",
            "target:1/4",
        ]
    )
    assert code == 10


@pytest.mark.parametrize(
    "selector", ["basis:x", "basis:01", "basis:+1", "basis: 1", "basis:4", "basis:-1", "basis:"]
)
@pytest.mark.parametrize("option", ["--from", "--to", "--seed"])
def test_state_selectors_parse_strictly(tmp_path, capsys, option, selector):
    inst = write_instance(tmp_path, TRIVIAL)
    out = tmp_path / "r.json"
    if option == "--seed":
        argv = ["monotones", "--instance", inst, "--depth", "1", option, selector]
    else:
        argv = ["reach", "--instance", inst, "--depth", "1", "--to", "basis:1", option, selector]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown state selector {selector!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-free", "--max-len", "1", "--cos", "1/0"],
        ["verify-free", "--max-len", "1", "--sin", "1/0"],
        ["verify-free", "--max-len", "1", "--axis-a", "1/0,0,0"],
        ["verify-free", "--max-len", "1", "--axis-b", "0,0,1/0"],
        ["membership", "--instance", "@", "--depth", "2", "--damping", "1/0"],
        ["reach", "--instance", "@", "--depth", "1", "--to", "target:1/0"],
        ["diff", "--instance", "@", "--depth", "1", "--target-damping", "1/0"],
    ],
    ids=lambda argv: argv[-2],
)
def test_zero_denominator_is_not_a_rational(tmp_path, capsys, argv):
    inst = write_instance(tmp_path, TRIVIAL)
    assert run([inst if a == "@" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: not a rational literal: '1/0'\n"
    assert captured.out == ""


# --- monotones ------------------------------------------------------------------------------


def test_monotones_demo(tmp_path):
    out = tmp_path / "r.json"
    dot = tmp_path / "q.dot"
    tables = tmp_path / "t.json"
    code = run(
        ["monotones", "--graph", "demo", "--out", str(out), "--dot", str(dot),
         "--tables", str(tables)]
    )
    assert code == 0
    report = load(out)
    assert report["outcome"]["compatible"] is True
    assert report["outcome"]["complete"] is True
    assert "tables" not in report["outcome"]
    assert report["config"] == {"graph": "demo", "subcommand": "monotones", "version": "0.1.0"}
    rho_table = next(t for t in load(tables) if t["base"] == "rho")
    assert rho_table["values"]["sigma"] == "1/7"
    assert rho_table["values"]["omega"] == "2"
    q = resourcegraph.quotient(resourcegraph.demo_graph())
    dist = resourcegraph.monotone_family(q).tables[q.class_of["rho"]].dist
    summary = report["outcome"]["table_summary"]
    assert [line["base"] for line in summary] == [t["base"] for t in load(tables)]
    rho_line = next(line for line in summary if line["base"] == "rho")
    assert rho_line == {
        "base": "rho",
        "reachable": sum(d >= 0 for d in dist),
        "max_distance": max(dist),
    }
    assert "subgraph cluster_" in dot.read_text()


def test_monotones_explored_instance(tmp_path):
    inst = write_instance(tmp_path, TRIVIAL)
    out = tmp_path / "r.json"
    code = run(
        [
            "monotones",
            "--instance",
            inst,
            "--depth",
            "3",
            "--seed",
            "basis:2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load(out)
    assert report["outcome"]["compatible"] is True
    assert report["outcome"]["complete"] is True


def test_monotones_requires_source():
    with pytest.raises(SystemExit) as err:
        run(["monotones"])
    assert err.value.code == 2


def test_monotones_graph_validation(tmp_path):
    inst = write_instance(tmp_path, TRIVIAL)
    for argv in (
        ["monotones", "--graph", "foo", "--instance", inst],
        ["monotones", "--graph", "demo", "--instance", inst, "--depth", "9"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2


def test_monotones_demo_rejects_instance_options(tmp_path, capsys):
    out = tmp_path / "r.json"
    for extra in (
        ["--depth", "9", "--seed", "maxmixed", "--damping", "1/3"],
        ["--depth", "3"],
        ["--seed", "basis:0"],
        ["--damping", "1/2"],
        ["--cos", "3/5"],
        ["--sin", "4/5"],
        ["--axis-a", "0,0,1"],
        ["--axis-b", "1,0,0"],
        ["--budget", "100000"],
    ):
        code = run(["monotones", "--graph", "demo", "--out", str(out)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --graph demo does not take")
        assert extra[0] in err
        assert not out.exists()


def test_monotones_instance_options_default(tmp_path):
    inst = write_instance(tmp_path, TRIVIAL)
    implicit = tmp_path / "implicit.json"
    explicit = tmp_path / "explicit.json"
    assert run(["monotones", "--instance", inst, "--out", str(implicit)]) == 0
    flags = [
        "--depth", "3", "--seed", "basis:0", "--damping", "1/2", "--cos", "3/5",
        "--sin", "4/5", "--axis-a", "0,0,1", "--axis-b", "1,0,0", "--budget", "100000",
    ]
    assert run(["monotones", "--instance", inst, "--out", str(explicit)] + flags) == 0
    assert normalized(load(implicit)) == normalized(load(explicit))
    assert load(implicit)["config"]["depth"] == 3
    assert load(implicit)["config"]["budget"] == 100_000


def test_monotones_demo_config_has_no_budget(tmp_path):
    out = tmp_path / "r.json"
    assert run(["monotones", "--graph", "demo", "--out", str(out)]) == 0
    assert load(out)["config"] == {"graph": "demo", "subcommand": "monotones", "version": "0.1.0"}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-free"],
        ["solve-pcp", "--instance", "@", "--depth", "2"],
        ["membership", "--instance", "@", "--depth", "2"],
        ["reach", "--instance", "@", "--depth", "1", "--to", "basis:1"],
        ["monotones", "--instance", "@"],
        ["diff", "--instance", "@", "--depth", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_budget_rejected(tmp_path, capsys, argv):
    inst = write_instance(tmp_path, TRIVIAL)
    out = tmp_path / "r.json"
    argv = [inst if a == "@" else a for a in argv]
    with pytest.raises(SystemExit) as err:
        run(argv + ["--budget", "-5", "--out", str(out)])
    assert err.value.code == 2
    assert "error: argument --budget: must be at least 0, got -5" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--budget", "0", "--out", str(out)]) in (0, 10)


def test_unwritable_report_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = run(["verify-free", "--max-len", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unwritable_dot_exits_2(tmp_path, capsys):
    """The DOT file is written before the report, so a run that fails to
    write it leaves no report behind."""
    out = tmp_path / "r.json"
    dot = tmp_path / "missing" / "q.dot"
    inst = write_instance(tmp_path, CLASSIC)
    for argv in (
        ["monotones", "--graph", "demo"],
        ["reach", "--instance", inst, "--depth", "1", "--to", "target:1/4"],
    ):
        code = run(argv + ["--out", str(out), "--dot", str(dot)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_unwritable_tables_exits_2(tmp_path, capsys):
    """The tables file is written before the report, as the DOT file is."""
    out = tmp_path / "r.json"
    tables = tmp_path / "missing" / "t.json"
    code = run(["monotones", "--graph", "demo", "--out", str(out), "--tables", str(tables)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, first, second",
    [
        ("monotones", "--out", "--dot"),
        ("monotones", "--dot", "--out"),
        ("monotones", "--out", "--tables"),
        ("monotones", "--dot", "--tables"),
        ("reach", "--out", "--dot"),
        ("reach", "--dot", "--out"),
    ],
)
def test_output_paths_must_differ(tmp_path, capsys, monkeypatch, subcommand, first, second):
    """Two output options that name one file, even spelled differently, exit
    2 before any work and write nothing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    inst = write_instance(tmp_path, CLASSIC)
    argv = {
        "monotones": ["monotones", "--graph", "demo"],
        "reach": ["reach", "--instance", inst, "--depth", "1", "--to", "target:1/4"],
    }[subcommand]
    code = run(argv + [first, "x.json", second, str(tmp_path / "sub" / ".." / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --")
    assert "name the same file" in err
    assert first in err and second in err
    assert not (tmp_path / "x.json").exists()


def test_output_paths_all_three_distinct(tmp_path):
    paths = [tmp_path / name for name in ("r.json", "q.dot", "t.json")]
    argv = ["monotones", "--graph", "demo"]
    for option, path in zip(("--out", "--dot", "--tables"), paths):
        argv += [option, str(path)]
    assert run(argv) == 0
    assert all(path.exists() for path in paths)


# --- diff ------------------------------------------------------------------------------------


def test_diff_empty_target_damping_is_not_a_rational(tmp_path, capsys):
    """An empty value is malformed like any other, not a request for the
    computed target."""
    inst = write_instance(tmp_path, TRIVIAL)
    out = tmp_path / "r.json"
    argv = ["diff", "--instance", inst, "--depth", "2", "--target-damping", "", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: not a rational literal: ''\n"
    assert not out.exists()


def test_diff_solvable_indistinguishable(tmp_path):
    inst = write_instance(tmp_path, TRIVIAL)
    out = tmp_path / "r.json"
    code = run(["diff", "--instance", inst, "--depth", "2", "--out", str(out)])
    assert code == 10
    report = load(out)
    assert report["outcome"]["status"] == "indistinguishable_up_to_depth"
    assert report["config"]["target_damping"] == "1/4"


def test_diff_unsolvable_distinct(tmp_path):
    inst = write_instance(tmp_path, IMPOSSIBLE)
    out = tmp_path / "r.json"
    code = run(["diff", "--instance", inst, "--depth", "2", "--out", str(out)])
    assert code == 0
    report = load(out)
    assert report["outcome"]["status"] == "distinct"
    assert report["outcome"]["witness"]["label"] == "PSI"


def test_diff_rejects_depth_below_one(tmp_path, capsys):
    inst = write_instance(tmp_path, CLASSIC)
    for depth in ("0", "-1"):
        out = tmp_path / "r.json"
        assert run(["diff", "--instance", inst, "--depth", depth, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: max_depth must be at least 1\n"
        assert not out.exists()


# --- config -----------------------------------------------------------------------------------

ROTATION = {"cos": "3/5", "sin": "4/5", "axis_a": ["0", "0", "1"], "axis_b": ["1", "0", "0"]}
Y_AXIS = ["--cos", "5/13", "--sin", "12/13", "--axis-a", "0,1,0", "--axis-b", "0,0,1"]
# Each run's `config`, as the reports wrote it before one function built
# them all, plus the package version; "@" stands for the instance path.
CONFIG_PINS = {
    "verify-free": (
        ["verify-free", "--max-len", "6"],
        {"subcommand": "verify-free", "version": "0.1.0",
         "rotation": ROTATION, "max_len": 6, "force": False,
         "budget": 1_000_000},
    ),
    "verify-free-force": (
        ["verify-free", "--force", "--cos", "1/2", "--sin", "0"],
        {"subcommand": "verify-free", "version": "0.1.0",
         "max_len": 12, "force": True, "budget": 1_000_000,
         "rotation": {**ROTATION, "cos": "1/2", "sin": "0"}},
    ),
    "solve-pcp": (
        ["solve-pcp", "--instance", "@", "--depth", "4"],
        {"subcommand": "solve-pcp", "version": "0.1.0",
         "instance": "@", "depth": 4, "budget": 200_000},
    ),
    "compile-y-axis": (
        ["compile", "--instance", "@", "--damping", "2/4", *Y_AXIS],
        {"subcommand": "compile", "version": "0.1.0", "instance": "@", "damping": "1/2",
         "rotation": {"cos": "5/13", "sin": "12/13", "axis_a": ["0", "1", "0"],
                      "axis_b": ["0", "0", "1"]}},
    ),
    "membership": (
        ["membership", "--instance", "@", "--depth", "8"],
        {"subcommand": "membership", "version": "0.1.0",
         "instance": "@", "rotation": ROTATION, "damping": "1/2",
         "depth": 8, "mode": "generic", "budget": 500_000},
    ),
    "membership-structured": (
        ["membership", "--instance", "@", "--depth", "16", "--mode", "structured"],
        {"subcommand": "membership", "version": "0.1.0",
         "instance": "@", "rotation": ROTATION, "damping": "1/2",
         "depth": 16, "mode": "structured", "budget": 500_000},
    ),
    "reach": (
        ["reach", "--instance", "@", "--depth", "2", "--from", "spread", "--to", "target:1/4"],
        {"subcommand": "reach", "version": "0.1.0",
         "instance": "@", "rotation": ROTATION, "damping": "1/2",
         "depth": 2, "from": "spread", "to": "target:1/4", "budget": 100_000},
    ),
    "monotones-demo": (
        ["monotones", "--graph", "demo"],
        {"subcommand": "monotones", "version": "0.1.0", "graph": "demo"},
    ),
    "monotones-instance": (
        ["monotones", "--instance", "@"],
        {"subcommand": "monotones", "version": "0.1.0",
         "instance": "@", "rotation": ROTATION, "damping": "1/2",
         "depth": 3, "seed": "basis:0", "budget": 100_000},
    ),
    "diff": (
        ["diff", "--instance", "@", "--depth", "4"],
        {"subcommand": "diff", "version": "0.1.0",
         "instance": "@", "rotation": ROTATION, "damping": "1/2",
         "target_damping": "1/4", "depth": 4, "budget": 500_000},
    ),
    "diff-target-damping": (
        ["diff", "--instance", "@", "--depth", "4", "--target-damping", "2/6"],
        {"subcommand": "diff", "version": "0.1.0",
         "instance": "@", "rotation": ROTATION, "damping": "1/2",
         "target_damping": "1/3", "depth": 4, "budget": 500_000},
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIG_PINS))
def test_config_pinned(tmp_path, name):
    argv, want = CONFIG_PINS[name]
    inst = write_instance(tmp_path, CLASSIC)
    out = tmp_path / "r.json"
    assert run([inst if a == "@" else a for a in argv] + ["--out", str(out)]) in (0, 10, 11)
    want = {k: inst if v == "@" else v for k, v in want.items()}
    assert load(out)["config"] == want


# --- reproducibility ---------------------------------------------------------------------------


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the child must import the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    inst = write_instance(tmp_path, TRIVIAL)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "freeops.cli",
            "solve-pcp",
            "--instance",
            inst,
            "--depth",
            "2",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"]["witness"] == [1]


@pytest.mark.parametrize(
    "argv",
    [["membership", "--depth", "8"], ["solve-pcp", "--depth", "6"], ["diff", "--depth", "4"]],
    ids=["membership", "solve-pcp", "diff"],
)
def test_reports_byte_identical_across_runs(tmp_path, argv):
    inst = write_instance(tmp_path, CLASSIC)
    texts = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        assert run(argv + ["--instance", inst, "--out", str(out)]) == 0
        texts.append(normalized(load(out)))
    assert len(set(texts)) == 1
