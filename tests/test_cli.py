import numpy as np
import pytest

from mstpart import cli
from mstpart.cli import main
from mstpart.hypergraph import Hypergraph, parse_hmetis, write_hmetis

from helpers import km1_oracle


def metric_map(text):
    out = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


def two_clique_file(tmp_path):
    pins, weights = [], []
    for group in (range(5), range(5, 10)):
        members = list(group)
        pins.append(members)
        weights.append(10)
        for i in members:
            for j in members:
                if i < j:
                    pins.append([i, j])
                    weights.append(3)
    pins.append([4, 5])
    weights.append(1)
    h = Hypergraph.from_edges(pins, edge_weight=weights)
    path = tmp_path / "pair.hgr"
    path.write_text(write_hmetis(h))
    return path


def test_partition_two_cliques(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    out = tmp_path / "part.txt"
    code = main([
        "partition", "--input", str(hgr), "--k", "2", "--epsilon", "0.04",
        "--num-init", "3", "--output", str(out),
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["cutsize"] == "1"
    assert metrics["feasible"] == "true"
    assert metrics["k"] == "2"
    labels = [int(x) for x in out.read_text().split()]
    assert sorted(set(labels)) == [0, 1]
    h = parse_hmetis(hgr.read_text())
    assert km1_oracle(h, np.array(labels)) == 1


def test_partition_written_file_revalidates(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    out = tmp_path / "part.txt"
    main([
        "partition", "--input", str(hgr), "--k", "2", "--num-init", "2",
        "--output", str(out),
    ])
    cut = metric_map(capsys.readouterr().out)["cutsize"]
    code = main([
        "evaluate", "--input", str(hgr), "--partition", str(out),
        "--k", "2", "--epsilon", "0.04",
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["cutsize"] == cut


def test_partition_k1(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    out = tmp_path / "part.txt"
    code = main(["partition", "--input", str(hgr), "--k", "1", "--output", str(out)])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["cutsize"] == "0"
    assert set(out.read_text().split()) == {"0"}


def test_partition_infeasible_still_written(tmp_path, capsys):
    text = "1 3 10\n1 2 3\n10\n1\n1\n"  # one giant vertex, cap = ceil(12/2) = 6
    hgr = tmp_path / "heavy.hgr"
    hgr.write_text(text)
    out = tmp_path / "part.txt"
    code = main([
        "partition", "--input", str(hgr), "--k", "2", "--epsilon", "0.0",
        "--num-init", "2", "--output", str(out),
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 2
    assert metrics["feasible"] == "false"
    assert len(out.read_text().split()) == 3


def test_partition_deterministic_byte_identical(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    outputs, metric_sets = [], []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        code = main([
            "partition", "--input", str(hgr), "--k", "2", "--num-init", "3",
            "--output", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
        metrics = metric_map(capsys.readouterr().out)
        metric_sets.append({k: v for k, v in metrics.items() if not k.startswith("time_")})
    assert outputs[0] == outputs[1]
    assert metric_sets[0] == metric_sets[1]


def test_evaluate_hand_computed(tmp_path, capsys):
    h = Hypergraph.from_edges([[0, 1, 2], [2, 3], [4, 5]], edge_weight=[2, 1, 3])
    hgr = tmp_path / "six.hgr"
    hgr.write_text(write_hmetis(h))
    part = tmp_path / "six.part"
    part.write_text("0\n0\n1\n1\n1\n1\n")
    code = main([
        "evaluate", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0.34",
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["cutsize"] == "2"
    assert metrics["mu_1"] == "2"
    assert metrics["mu_2"] == "1"
    assert metrics["block_weights"] == "2,4"
    assert metrics["feasible"] == "true"


def test_evaluate_all_zero_partition_infeasible(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "zero.part"
    part.write_text("0\n" * 10)
    code = main([
        "evaluate", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0.04",
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 2
    assert metrics["cutsize"] == "0"
    assert metrics["feasible"] == "false"


def test_evaluate_block_id_out_of_range(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "bad.part"
    part.write_text("0\n1\n2\n0\n1\n0\n1\n0\n1\n0\n")
    code = main([
        "evaluate", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0.04",
    ])
    assert code == 1


def test_evaluate_wrong_length(tmp_path):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "short.part"
    part.write_text("0\n1\n")
    code = main([
        "evaluate", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0.04",
    ])
    assert code == 1


def test_improve_local_optimum_ratio_one(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "opt.part"
    part.write_text("0\n0\n0\n0\n0\n1\n1\n1\n1\n1\n")
    out = tmp_path / "better.part"
    code = main([
        "improve", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0.04", "--output", str(out),
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["cutsize_before"] == metrics["cutsize_after"] == "1"
    assert metrics["ratio"] == "1.000000"
    assert metrics["repaired"] == "false"
    assert out.read_text() == part.read_text()


@pytest.mark.parametrize("hgr_text, start, k, after, ratio", [
    # all three vertices in block 0 cut nothing but outweigh the cap of 1.06
    pytest.param("2 3\n1 2\n2 3\n", "0\n0\n0\n", "3", "2", "inf", id="rises-from-zero"),
    pytest.param("1 4\n1 2\n", "0\n0\n1\n1\n", "2", "0", "1.000000", id="stays-zero"),
])
def test_improve_ratio_from_a_zero_cut(tmp_path, capsys, hgr_text, start, k, after, ratio):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(hgr_text)
    part = tmp_path / "start.part"
    part.write_text(start)
    code = main([
        "improve", "--input", str(hgr), "--partition", str(part),
        "--k", k, "--output", str(tmp_path / "out.part"),
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["cutsize_before"] == "0"
    assert metrics["cutsize_after"] == after
    assert metrics["ratio"] == ratio


def test_improve_lowers_bad_partition(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "alt.part"
    part.write_text("".join(f"{v % 2}\n" for v in range(10)))
    out = tmp_path / "better.part"
    code = main([
        "improve", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0.04", "--output", str(out),
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert int(metrics["cutsize_after"]) < int(metrics["cutsize_before"])
    assert metrics["feasible"] == "true"


def test_improve_repairs_infeasible_input(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "lopsided.part"
    part.write_text("0\n" * 10)
    out = tmp_path / "fixed.part"
    code = main([
        "improve", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0.04", "--output", str(out),
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["repaired"] == "true"
    assert metrics["repair_ok"] == "true"
    assert metrics["feasible"] == "true"


def test_improve_reports_a_failed_repair(tmp_path, capsys):
    # vertex 0 weighs 9 against a cap of 7, so no repair can succeed
    hgr = tmp_path / "heavy.hgr"
    hgr.write_text("3 5 10\n1 2\n2 3 4\n4 5\n9\n1\n1\n1\n1\n")
    part = tmp_path / "start.part"
    part.write_text("0\n1\n1\n0\n1\n")
    code = main([
        "improve", "--input", str(hgr), "--partition", str(part),
        "--k", "2", "--epsilon", "0", "--output", str(tmp_path / "out.part"),
    ])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 2
    assert metrics["repaired"] == "true"
    assert metrics["repair_ok"] == "false"
    assert metrics["feasible"] == "false"


@pytest.mark.parametrize("flag, value", [
    ("--num-init", "50"), ("--lambda1", "0.3"), ("--lambda2", "0.5"),
    ("--tau", "0.9"), ("--p", "2"), ("--p-rule", "sqrt"),
])
def test_improve_rejects_flags_it_does_not_read(tmp_path, capsys, flag, value):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "opt.part"
    part.write_text("0\n" * 5 + "1\n" * 5)
    out = tmp_path / "better.part"
    runs = [["improve", "--partition", str(part), "--output", str(out)]]
    if flag == "--tau":  # no subcommand has it: the spanning tree takes no threshold
        runs += [["partition", "--output", str(out)],
                 ["sweep", "--axis", "num_init", "--values", "1", "--csv", str(out)]]
    for run in runs:
        code = main([
            run[0], "--input", str(hgr), *run[1:],
            "--k", "2", "--epsilon", "0.04", flag, value,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert flag in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_sweep_num_init(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    code = main([
        "sweep", "--input", str(hgr), "--k", "2", "--epsilon", "0.04",
        "--axis", "num_init", "--values", "1", "2",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "value,cutsize,time"
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[2].startswith("2,")


def test_sweep_p_axis_default_rules(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    csv = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--input", str(hgr), "--k", "2", "--num-init", "2",
        "--axis", "p", "--csv", str(csv),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [row.split(",")[0] for row in lines[1:]] == ["sqrt(n/2)", "n/(5k)"]
    assert csv.read_text().splitlines() == lines


def test_sweep_p_axis_labels_rows_with_the_p_that_ran(tmp_path, capsys):
    # 10 vertices: p = 500 runs as p = 10, and sqrt as ceil(sqrt(10 / 2)) = 3
    hgr = two_clique_file(tmp_path)
    code = main([
        "sweep", "--input", str(hgr), "--k", "2", "--num-init", "1",
        "--axis", "p", "--values", "2", "500", "sqrt",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "10", "3"]


def test_sweep_single_lambda_value(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    code = main([
        "sweep", "--input", str(hgr), "--k", "2", "--num-init", "2",
        "--axis", "lambda1", "--values", "0.5",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == 2
    assert lines[1].startswith("0.5,")


def test_sweep_requires_values_for_non_p_axis(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    code = main([
        "sweep", "--input", str(hgr), "--k", "2",
        "--axis", "lambda1",
    ])
    assert code == 1


def test_unknown_axis_is_an_error(tmp_path):
    hgr = two_clique_file(tmp_path)
    code = main([
        "sweep", "--input", str(hgr), "--k", "2", "--axis", "bogus",
        "--values", "1",
    ])
    assert code == 1


def test_missing_input_file_is_an_error(tmp_path, capsys):
    code = main([
        "partition", "--input", str(tmp_path / "nope.hgr"), "--k", "2",
        "--output", str(tmp_path / "o.txt"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_surplus_data_lines_are_an_error(tmp_path, capsys):
    hgr = tmp_path / "surplus.hgr"
    hgr.write_text("2 4\n1 2\n2 3\n3 4\n5\n6\n7\n8\n")
    code = main([
        "partition", "--input", str(hgr), "--k", "2",
        "--output", str(tmp_path / "o.txt"),
    ])
    assert code == 1
    assert "surplus" in capsys.readouterr().err


def test_epsilon_and_ubfactor_conflict(tmp_path):
    hgr = two_clique_file(tmp_path)
    code = main([
        "partition", "--input", str(hgr), "--k", "2", "--epsilon", "0.04",
        "--ubfactor", "2", "--output", str(tmp_path / "o.txt"),
    ])
    assert code == 1


def test_metrics_file_matches_stdout(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)
    out = tmp_path / "part.txt"
    metrics_path = tmp_path / "metrics.txt"
    main([
        "partition", "--input", str(hgr), "--k", "2", "--num-init", "2",
        "--output", str(out), "--metrics", str(metrics_path),
    ])
    stdout = capsys.readouterr().out
    assert metrics_path.read_text() == stdout


PAIR_SOLVE_FLAGS = ("--xi1", "--xi2", "--pair-rounds")


@pytest.mark.parametrize("flag, value", [
    ("--num-init", "0"), ("--threads", "-1"), ("--pair-rounds", "-1"),
    ("--p", "0"), ("--p", "-5"), ("--p", "1"),
    ("--apg-epsilon", "0"), ("--apg-epsilon", "nan"), ("--apg-epsilon", "inf"),
    ("--apg-max-iters", "0"),
    ("--epsilon", "nan"), ("--epsilon", "inf"),
    ("--lambda1", "2"), ("--lambda1", "nan"), ("--lambda2", "-0.5"),
    ("--xi1", "1.5"), ("--xi1", "nan"), ("--xi2", "-1"),
    ("--k", "0"), ("--ubfactor", "60"), ("--ubfactor", "nan"),
])
def test_out_of_range_pipeline_flags_are_errors(tmp_path, capsys, flag, value):
    hgr = two_clique_file(tmp_path)
    command = ["partition"]
    if flag in PAIR_SOLVE_FLAGS:  # improve alone takes them
        part = tmp_path / "opt.part"
        part.write_text("0\n" * 5 + "1\n" * 5)
        command = ["improve", "--partition", str(part)]
    code = main([
        *command, "--input", str(hgr), "--k", "2", flag, value,
        "--output", str(tmp_path / "o.txt"),
    ])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("command", ["partition", "sweep"])
@pytest.mark.parametrize("flag", PAIR_SOLVE_FLAGS)
def test_pair_solve_flags_are_improve_only(tmp_path, capsys, monkeypatch, command, flag):
    # run_pipeline runs no pair solve, so no flag of one would change its run
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: runs.append(args))
    hgr = two_clique_file(tmp_path)
    out = tmp_path / "o.txt"
    extra = (["--output", str(out)] if command == "partition"
             else ["--axis", "num_init", "--values", "1"])
    code = main([command, "--input", str(hgr), "--k", "2", flag, "1", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert runs == []
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("axis", ["xi1", "xi2"])
def test_sweep_has_no_pair_solve_axis(tmp_path, capsys, monkeypatch, axis):
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: runs.append(args))
    hgr = two_clique_file(tmp_path)
    code = main(["sweep", "--input", str(hgr), "--k", "2", "--axis", axis, "--values", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert runs == []
    assert "--axis" in captured.err and repr(axis) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("axis, values", [
    pytest.param("num_init", ["0"], id="num_init-0"),
    pytest.param("num_init", ["abc"], id="num_init-abc"),
    pytest.param("lambda1", ["2"], id="lambda1-2"),
    pytest.param("num_init", ["2", "0"], id="num_init-2-0"),
    pytest.param("p", ["x"], id="p-x"),
])
def test_sweep_checks_every_value_before_the_first_run(tmp_path, capsys, monkeypatch,
                                                      axis, values):
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: runs.append(args))
    hgr = two_clique_file(tmp_path)
    code = main(["sweep", "--input", str(hgr), "--k", "2", "--num-init", "1",
                 "--axis", axis, "--values", *values])
    captured = capsys.readouterr()
    assert code == 1
    assert runs == []
    assert "--values" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["evaluate", "partition"])
def test_ubfactor_with_one_block_names_the_flags(tmp_path, capsys, command):
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "one.part"
    part.write_text("0\n" * 10)
    extra = ["--partition", str(part)] if command == "evaluate" else ["--output", str(tmp_path / "o.txt")]
    code = main([command, "--input", str(hgr), "--k", "1", "--ubfactor", "5", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert "--ubfactor" in captured.err and "--k" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra", [
    pytest.param(["--p", "1", "--axis", "num_init", "--values", "1"], id="extra0"),
    pytest.param(["--axis", "p", "--values", "2", "1"], id="extra1"),
])
def test_sweep_p_below_k_is_an_error(tmp_path, capsys, extra):
    hgr = two_clique_file(tmp_path)
    code = main(["sweep", "--input", str(hgr), "--k", "2", "--num-init", "1", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert "--p" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, axis, values", [
    pytest.param("--p", "3", "p", [], id="p-default-rules"),
    pytest.param("--p", "3", "p", ["4"], id="p-values"),
    pytest.param("--p", "sqrt", "p", [], id="p-rule"),
    pytest.param("--num-init", "2", "num_init", ["1"], id="num-init"),
    pytest.param("--lambda1", "0.3", "lambda1", ["0.5"], id="lambda1"),
    pytest.param("--lambda2", "0.3", "lambda2", ["0.5"], id="lambda2"),
])
def test_sweep_rejects_the_flag_of_its_own_axis(tmp_path, capsys, monkeypatch,
                                                flag, value, axis, values):
    # the axis sets that flag on every run, so the flag would be dropped
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: runs.append(args))
    hgr = two_clique_file(tmp_path)
    args = ["sweep", "--input", str(hgr), "--k", "2", flag, value, "--axis", axis]
    code = main(args + (["--values", *values] if values else []))
    captured = capsys.readouterr()
    assert code == 1
    assert runs == []
    assert flag + " " in captured.err and "--axis " + axis in captured.err
    assert captured.out == ""


def test_p_takes_counts_and_rules_together(tmp_path, capsys):
    hgr = two_clique_file(tmp_path)  # 10 vertices: 12 runs as 10
    out = tmp_path / "o.txt"
    code = main(["partition", "--input", str(hgr), "--k", "2", "--num-init", "2",
                 "--p", "sqrt", "12", "--output", str(out)])
    metrics = metric_map(capsys.readouterr().out)
    assert code == 0
    assert metrics["feasible"] == "true"
    assert len(out.read_text().split()) == 10


@pytest.mark.parametrize("command", ["partition", "sweep"])
@pytest.mark.parametrize("flags, named", [
    pytest.param(["--p", "x"], ["--p", "'sqrt'", "'linear'", "'x'"], id="unknown-rule"),
    pytest.param(["--p", "sqrt", "1"], ["--p", ">= k (2)", "got 1"], id="count-below-k"),
    pytest.param(["--p-rule", "sqrt"], ["--p-rule"], id="p-rule"),
])
def test_bad_p_entries_are_errors(tmp_path, capsys, monkeypatch, command, flags, named):
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: runs.append(args))
    hgr = two_clique_file(tmp_path)
    out = tmp_path / "o.txt"
    extra = (["--output", str(out)] if command == "partition"
             else ["--axis", "num_init", "--values", "1"])
    code = main([command, "--input", str(hgr), "--k", "2", *flags, *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert runs == []
    assert all(word in captured.err for word in named)
    assert captured.out == ""
    assert not out.exists()


def test_sweep_has_no_metrics_flag(tmp_path, capsys):
    # sweep writes its rows with --csv; a --metrics file would never be written
    hgr = two_clique_file(tmp_path)
    metrics_path = tmp_path / "metrics.txt"
    code = main(["sweep", "--input", str(hgr), "--k", "2", "--axis", "num_init",
                 "--values", "1", "--metrics", str(metrics_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--metrics" in captured.err
    assert not metrics_path.exists()


@pytest.mark.parametrize("command", ["partition", "evaluate", "improve", "sweep"])
def test_every_subcommand_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith(f"usage: mstpart {command} ")
    assert ("--metrics" in help_text) == (command != "sweep")


REPEATS = {
    "--num-init": ["--num-init", "2", "--num-init", "1"],
    "--k": ["--k", "3"],  # after the --k 2 every run gives
    "--p": ["--p", "3", "--p", "sqrt"],
}


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command}{flag}")
    for command in ("partition", "evaluate", "improve", "sweep")
    for flag in REPEATS
    if command in ("partition", "sweep") or flag == "--k"
])
def test_an_option_given_twice_is_an_error(tmp_path, capsys, monkeypatch, command, flag):
    # argparse would keep the last value; the run stops before the input is read
    reads = []
    monkeypatch.setattr(cli, "parse_hmetis", lambda text: reads.append(text))
    hgr = two_clique_file(tmp_path)
    part = tmp_path / "start.part"
    part.write_text("0\n" * 5 + "1\n" * 5)
    out = tmp_path / "out.txt"
    extra = {
        "partition": ["--output", str(out)],
        "evaluate": ["--partition", str(part), "--metrics", str(out)],
        "improve": ["--partition", str(part), "--output", str(out)],
        "sweep": ["--axis", "lambda1", "--values", "0.5", "--csv", str(out)],
    }[command]
    code = main([command, "--input", str(hgr), "--k", "2", *REPEATS[flag], *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert f"argument {flag}: given more than once" in captured.err
    assert captured.out == ""
    assert reads == []
    assert not out.exists()
