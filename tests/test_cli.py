"""The gsa command line: round trips, output formats, exit codes."""

from __future__ import annotations

import json
import re

import pytest

import gsa.cli
from gsa import MinMaxPartition, Partition, format_graph, make_graph, parse_graph
from gsa.cli import EXIT_ASSERT, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from gsa.oracle import OracleStabilizationError

from conftest import FIG_LABELS, FIG_MIN_GROUPS, FIG_PREDS


@pytest.fixture
def fig_file(tmp_path):
    g = make_graph(FIG_LABELS, FIG_PREDS, sigma=4)
    path = tmp_path / "fig.tsv"
    path.write_text(format_graph(g), encoding="utf-8")
    return str(path)


def test_validate_ok(fig_file, capsys):
    assert main(["validate", fig_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    # node 1 has no predecessor
    path = tmp_path / "bad.tsv"
    path.write_text("gsa-graph v1 2 1\n0\t0\t0\n", encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "in-degree" in capsys.readouterr().out


def test_validate_counts_unused_characters(tmp_path, capsys):
    # one alphabet line with a count, not one line per unused character
    path = tmp_path / "wide.tsv"
    path.write_text("gsa-graph v1 1 3000000\n0\t0\t0\n", encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_INVALID
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("alphabet\t") and "2999999 of 3000000" in lines[0]


@pytest.mark.parametrize(
    "args",
    [["tau"], ["oracle"], ["oracle", "--kind", "minmax"]],
    ids=["tau", "oracle-min", "oracle-minmax"],
)
def test_tau_and_oracle_reject_invalid(args, tmp_path, capsys):
    # node 2 has no incoming edge
    path = tmp_path / "bad.tsv"
    path.write_text("gsa-graph v1 3 2\n0\t0\t0\n0\t1\t1\n", encoding="utf-8")
    assert main([*args, str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "in-degree" in captured.err


def test_oracle_stabilization_error_exit_code(fig_file, monkeypatch, capsys):
    def stuck(g, kind):
        raise OracleStabilizationError("no fixpoint")

    monkeypatch.setattr(gsa.cli, "oracle_partition", stuck)
    assert main(["oracle", fig_file]) == EXIT_ASSERT
    assert "internal assertion: no fixpoint" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["min", "max", "minmax"])
def test_verify_exit_code_on_a_wrong_engine_result(cmd, fig_file, monkeypatch, capsys):
    # the engine's groups in reverse order: a partition the oracle rejects
    engine = getattr(gsa.cli, f"{cmd}_partition")
    wrong = MinMaxPartition if cmd == "minmax" else Partition

    def reversed_groups(g):
        return wrong(engine(g).groups[::-1])

    monkeypatch.setattr(gsa.cli, f"{cmd}_partition", reversed_groups)
    assert main([cmd, fig_file, "--verify"]) == EXIT_ASSERT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal assertion: oracle disagreement" in captured.err


def test_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.tsv"
    path.write_text("not a graph\n", encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == EXIT_USAGE


def test_tau(fig_file, capsys):
    assert main(["tau", fig_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [int(ln.split("\t")[1]) for ln in lines] == [2, 1, 1, 1, 1, 3, 1]


def test_min_text(fig_file, capsys):
    assert main(["min", fig_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    got = tuple(tuple(int(x) for x in ln.split()) for ln in lines)
    assert got == FIG_MIN_GROUPS


def test_min_json_and_verify(fig_file, capsys):
    assert main(["min", fig_file, "--json", "--verify"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert tuple(tuple(grp) for grp in data["groups"]) == FIG_MIN_GROUPS


def test_max_matches_oracle_cmd(fig_file, capsys):
    assert main(["max", fig_file]) == EXIT_OK
    ours = capsys.readouterr().out
    assert main(["oracle", fig_file, "--kind", "max"]) == EXIT_OK
    assert capsys.readouterr().out == ours


def test_minmax_text(fig_file, capsys):
    assert main(["minmax", fig_file, "--verify"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert lines[0].split() == ["m:0", "M:0"]
    assert lines[-1].split() == ["M:4", "M:6"]


def test_minmax_json(fig_file, capsys):
    assert main(["minmax", fig_file, "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["groups"][0] == [[0, "min"], [0, "max"]]


def test_reduce(fig_file, capsys):
    assert main(["reduce", fig_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "direction\t3" in out
    assert "nodes\t5" in out
    assert "char\t0\t(1,2,0)\tt=2" in out
    assert "edge\t0\t0" in out


def test_reduce_empty_class(tmp_path, capsys):
    path = tmp_path / "loop.tsv"
    path.write_text(format_graph(make_graph([0], [[0]])), encoding="utf-8")
    assert main(["reduce", str(path)]) == EXIT_OK
    assert "class empty" in capsys.readouterr().out


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    assert (
        main(["gen", "-n", "12", "--sigma", "3", "--seed", "5", "-o", str(out)])
        == EXIT_OK
    )
    g = parse_graph(out.read_text(encoding="utf-8"))
    assert g.n == 12 and g.sigma == 3
    assert main(["min", str(out), "--verify"]) == EXIT_OK
    capsys.readouterr()


def test_gen_stdout_then_pipe(tmp_path, capsys):
    assert main(["gen", "--kind", "cycle", "-n", "6", "--sigma", "2"]) == EXIT_OK
    text = capsys.readouterr().out
    path = tmp_path / "c.tsv"
    path.write_text(text, encoding="utf-8")
    assert main(["minmax", str(path), "--verify"]) == EXIT_OK


def test_gen_usage_error(capsys):
    # debruijn sizes must be a power of sigma
    assert main(["gen", "--kind", "debruijn", "-n", "7", "--sigma", "2"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_gen_debruijn_sigma_one_is_a_usage_error(capsys):
    # the only power of 1 is 1, so the size search must stop, not spin
    assert main(["gen", "--kind", "debruijn", "-n", "2", "--sigma", "1"]) == EXIT_USAGE
    assert "power of sigma" in capsys.readouterr().err
    assert main(["gen", "--kind", "debruijn", "-n", "1", "--sigma", "1"]) == EXIT_OK


@pytest.mark.parametrize(
    "args, message",
    [
        (["-n", "0"], "n must be >= 1"),
        (["--kind", "cycle", "-n", "3", "--sigma", "4"], "cycle needs 1 <= sigma <= n"),
        (["--kind", "debruijn", "-n", "4", "--sigma", "0"], "debruijn needs sigma >= 1"),
        (["--kind", "chain-feeding-sink", "-n", "5", "--sigma", "3"], "defined for sigma = 2"),
        (["--kind", "chain-feeding-sink", "-n", "1"], "chain-feeding-sink needs n >= 2"),
        (["-n", "5", "--sigma", "6"], "random needs 1 <= sigma <= n"),
        (["-n", "5", "--density", "1.5"], r"density must be in \[0, 1\]"),
        (["-n", "5", "--density", "-0.1"], r"density must be in \[0, 1\]"),
        # only random reads the density, but every kind checks it
        (["--kind", "cycle", "-n", "6", "--density", "2"], r"density must be in \[0, 1\]"),
    ],
    ids=[
        "n-below-1",
        "cycle-sigma",
        "debruijn-sigma",
        "chain-sigma",
        "chain-n",
        "random-sigma",
        "density-above-1",
        "density-below-0",
        "cycle-density",
    ],
)
def test_gen_argument_errors(args, message, capsys):
    assert main(["gen", *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"^usage error: .*{message}", captured.err)


def test_unknown_generator_kind_is_a_usage_error(capsys):
    # gen --kind is limited to the known kinds by argparse; bench --kinds is
    # not, so it reaches gen's own check
    argv = ["bench", "--kinds", "spiral", "--sizes", "8,16,32", "--repeats", "1"]
    assert main(argv) == EXIT_USAGE
    assert "usage error: unknown generator kind 'spiral'" in capsys.readouterr().err


def test_bench_needs_three_sizes(capsys):
    assert main(["bench", "--sizes", "100,200"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_needs_one_repeat(capsys, repeats):
    argv = ["bench", "--kinds", "cycle", "--sizes", "8,16,32", "--repeats", repeats]
    assert main(argv) == EXIT_USAGE
    assert "usage error: repeats must be at least 1" in capsys.readouterr().err


def test_bench_small_run(capsys):
    rc = main(
        [
            "bench",
            "--kinds",
            "cycle",
            "--sizes",
            "50,100,200",
            "--repeats",
            "1",
            "--json",
        ]
    )
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert {r["n"] for r in data["records"]} == {50, 100, 200}
    assert "cycle" in data["slopes"]


def test_bench_text(capsys):
    argv = ["bench", "--kinds", "cycle", "--sizes", "8,16,32", "--repeats", "1"]
    assert main(argv) == EXIT_OK
    header, *rows, slope = capsys.readouterr().out.splitlines()
    assert header == "kind\tn\tm\ttime_ms\tdepth\tpeak_work"
    # one row per size; a cycle has one edge per node
    assert [r.split("\t")[:3] for r in rows] == [["cycle", n, n] for n in ("8", "16", "32")]
    assert all(re.fullmatch(r"(\S+\t){3}\d+\.\d\t\d+\t\d+", r) for r in rows)
    assert re.fullmatch(r"slope\tcycle\t-?\d+\.\d{3}", slope)


def test_missing_file_is_invalid(capsys):
    assert main(["min", "/nonexistent/graph.tsv"]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["validate", "min"])
def test_file_that_is_not_utf8_is_invalid(cmd, tmp_path, capsys):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"# caf\xe9\ngsa-graph v1 1 1\n0\t0\t0\n")
    assert main([cmd, str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}: not UTF-8 at byte 5" in err
