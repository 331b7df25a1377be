"""End-to-end CLI runs: exit codes, report shape, determinism."""

import json

import pytest

from freeops import cli
from freeops import reduction

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
    assert set(bundle["unitaries"]) == {"H1", "G1"}
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


def test_membership_degenerate_tile_errors(tmp_path):
    inst = write_instance(tmp_path, "0|0\n|\n")
    code = run(["membership", "--instance", inst, "--depth", "2"])
    assert code == 2


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


def test_membership_mismatch_alarm(tmp_path, monkeypatch):
    # force a fake Found against an unsolvable oracle: the wiring must trip
    inst = write_instance(tmp_path, IMPOSSIBLE)
    real = reduction.membership_search

    def fake(gens, depth, mode="generic", node_budget=0):
        out = real(gens, 2, mode=mode)
        return reduction.MembershipOutcome(
            status=reduction.FOUND,
            mode=out.mode,
            witness=("H1",),
            scalar_value=None,
            witness_damping=None,
            extracted=None,
            depth_reached=1,
            nodes_expanded=1,
        )

    monkeypatch.setattr(cli.reduction, "membership_search", fake)
    code = run(["membership", "--instance", inst, "--depth", "4"])
    assert code == 12


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


# --- monotones ------------------------------------------------------------------------------


def test_monotones_demo(tmp_path):
    out = tmp_path / "r.json"
    dot = tmp_path / "q.dot"
    code = run(
        ["monotones", "--graph", "demo", "--out", str(out), "--dot", str(dot)]
    )
    assert code == 0
    report = load(out)
    assert report["outcome"]["compatible"] is True
    assert report["outcome"]["complete"] is True
    rho_table = next(
        t for t in report["outcome"]["tables"] if t["base"] == "rho"
    )
    assert rho_table["values"]["sigma"] == "1/7"
    assert rho_table["values"]["omega"] == "2"
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
    assert run(["monotones"]) == 2


# --- diff ------------------------------------------------------------------------------------


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


def test_reports_byte_identical_across_runs(tmp_path):
    inst = write_instance(tmp_path, CLASSIC)
    texts = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        code = run(
            ["membership", "--instance", inst, "--depth", "8", "--out", str(out)]
        )
        assert code == 0
        texts.append(normalized(load(out)))
    assert len(set(texts)) == 1


def test_reports_identical_across_worker_counts(tmp_path):
    # runs are single-threaded; repeated solve-pcp reports must agree
    inst = write_instance(tmp_path, CLASSIC)
    texts = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        code = run(
            ["solve-pcp", "--instance", inst, "--depth", "6", "--out", str(out)]
        )
        assert code == 0
        texts.append(normalized(load(out)))
    assert len(set(texts)) == 1
