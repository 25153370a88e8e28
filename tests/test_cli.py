import contextlib
import io
import json
import math
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpatterns import cli
from superpatterns.cli import main
from superpatterns.dfa import (
    INFINITY,
    WeightedDfa,
    build_greedy_dfa,
    build_subset_dfa,
    build_two_track_dfa,
    dfa_to_json,
    random_k_dfa,
)
from superpatterns.patterns import as_word

from child import run_python
from oracles import brute_injective_costs


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_proc(*argv):
    proc = run_python("-m", "superpatterns.cli", *argv)
    return proc.returncode, proc.stdout, proc.stderr


class TestContains:
    def test_witness(self, capsys):
        rc, out, _ = run_cli(
            capsys, "contains", "--word", "2", "5", "1", "4", "3",
            "--perm", "3", "1", "2",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["contains"] is True
        assert doc["witness"] == [2, 3, 4]
        assert doc["schema_version"] == 1

    def test_greedy_trace_on_full_alphabet(self, capsys):
        rc, out, _ = run_cli(
            capsys, "contains", "--word", "1", "2", "3", "2", "--perm", "1", "3", "2"
        )
        doc = json.loads(out)
        assert doc["greedy_embedding"] == [1, 3, 4]

    def test_word_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("r=5\n2 5 1 4 3\n")
        rc, out, _ = run_cli(
            capsys, "contains", "--word-file", str(path), "--perm", "1", "2"
        )
        assert rc == 0
        assert json.loads(out)["contains"] is True


class TestDfaCommands:
    def test_build_dot_has_figure_edges(self, capsys):
        rc, out, _ = run_cli(
            capsys, "dfa", "build", "greedy", "--word", "1", "2", "3", "2",
            "--format", "dot",
        )
        assert rc == 0
        edge_lines = [
            ln for ln in out.splitlines() if "->" in ln and "__root__" not in ln
        ]
        assert len(edge_lines) == 8
        assert '    "0" -> "1" [label="1 (1)"];' in edge_lines

    def test_build_json_round_trips(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "dfa", "build", "greedy", "--word", "1", "2", "3", "2"
        )
        doc = json.loads(out)
        assert doc["alphabet_size"] == 3
        path = tmp_path / "dfa.json"
        path.write_text(out)
        rc2, out2, _ = run_cli(
            capsys, "dfa", "build", "file", "--in", str(path)
        )
        assert out2 == out

    def test_empty_word_dot(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("r=3\n")
        rc, out, _ = run_cli(capsys, "dfa", "dot", "greedy", "--word-file", str(path))
        assert rc == 0
        node_lines = [ln for ln in out.splitlines() if ln.strip() == '"0";']
        edge_lines = [
            ln for ln in out.splitlines() if "->" in ln and "__root__" not in ln
        ]
        assert len(node_lines) == 1
        assert edge_lines == []

    @pytest.mark.parametrize("infinite", [[], ["--include-infinite"]])
    def test_dot_action_matches_build_format_dot(self, capsys, infinite):
        greedy = ["greedy", "--word", "1", "2", "3", "2", *infinite]
        rc, dot, _ = run_cli(capsys, "dfa", "dot", *greedy)
        rc2, build, _ = run_cli(capsys, "dfa", "build", *greedy, "--format", "dot")
        assert rc == rc2 == 0
        assert dot == build

    def test_cost_and_census(self, capsys):
        rc, out, _ = run_cli(
            capsys, "dfa", "cost", "subset", "--k", "3", "--walk-word", "3", "2", "1"
        )
        # the walk's start, word and total only: no states or step costs
        assert out == (
            '{"command": "dfa cost", "schema_version": 1, "start": 0, '
            '"total_cost": 6, "walk_word": [3, 2, 1]}\n'
        )
        rc, out, _ = run_cli(
            capsys, "dfa", "census", "subset", "--k", "3", "--budget", "2"
        )
        doc = json.loads(out)
        assert doc["count_within_budget"] == 0
        assert doc["census"][0] == {"cost": 3, "count": 1}

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                "subset --k 5 --budget 8",
                '{"budget": 8, "census": [{"cost": 5, "count": 1}, {"cost": 6, "count": 4}, '
                '{"cost": 7, "count": 9}, {"cost": 8, "count": 15}, {"cost": 9, "count": 20}, '
                '{"cost": 10, "count": 22}, {"cost": 11, "count": 20}, {"cost": 12, "count": 15}, '
                '{"cost": 13, "count": 9}, {"cost": 14, "count": 4}, {"cost": 15, "count": 1}], '
                '"command": "dfa census", "count_within_budget": 29, "k": 5, "schema_version": 1}',
            ),
            (
                "subset --k 3 --budget -1",
                '{"budget": -1, "census": [{"cost": 3, "count": 1}, {"cost": 4, "count": 2}, '
                '{"cost": 5, "count": 2}, {"cost": 6, "count": 1}], "command": "dfa census", '
                '"count_within_budget": 0, "k": 3, "schema_version": 1}',
            ),
            (
                "random --k 5 --states 4 --dfa-seed 3 --budget 11",
                '{"budget": 11, "census": [{"cost": 8, "count": 1}, {"cost": 10, "count": 4}, '
                '{"cost": 11, "count": 3}, {"cost": 12, "count": 16}, {"cost": 13, "count": 7}, '
                '{"cost": 14, "count": 15}, {"cost": 15, "count": 14}, {"cost": 16, "count": 19}, '
                '{"cost": 17, "count": 15}, {"cost": 18, "count": 6}, {"cost": 19, "count": 9}, '
                '{"cost": 20, "count": 4}, {"cost": 21, "count": 5}, {"cost": 23, "count": 2}], '
                '"command": "dfa census", "count_within_budget": 8, "k": 5, "schema_version": 1}',
            ),
            (
                "greedy --word 1 2 3 2 --budget 4",
                '{"budget": 4, "census": [{"cost": 3, "count": 1}, {"cost": 4, "count": 1}, '
                '{"cost": "inf", "count": 4}], "command": "dfa census", '
                '"count_within_budget": 2, "k": 3, "schema_version": 1}',
            ),
            (
                "greedy --word 3 1 2 3 1 --budget 100",
                '{"budget": 100, "census": [{"cost": 3, "count": 1}, {"cost": 4, "count": 1}, '
                '{"cost": 5, "count": 2}, {"cost": "inf", "count": 2}], "command": "dfa census", '
                '"count_within_budget": 4, "k": 3, "schema_version": 1}',
            ),
        ],
    )
    def test_census_budget_output_pinned(self, capsys, argv, expected):
        # the budget count is read off the census; these are the bytes the
        # separate budgeted DP printed
        rc, out, _ = run_cli(capsys, "dfa", "census", *argv.split())
        assert rc == 0
        assert out == expected + "\n"

    def test_infinite_cost_serializes_as_string(self, capsys):
        rc, out, _ = run_cli(
            capsys, "dfa", "cost", "greedy", "--word", "1", "2", "3", "2",
            "--walk-word", "2", "1", "3",
        )
        assert json.loads(out)["total_cost"] == "inf"


class TestCheapenWalk:
    def test_cheapen_emits_k_dfa(self, capsys):
        rc, out, _ = run_cli(capsys, "cheapen", "greedy", "--word", "1", "2", "3", "2")
        doc = json.loads(out)
        rows = {row["state"]: row for row in doc["rows"]}
        costs_at_3 = sorted(e["cost"] for e in rows[3]["edges"])
        assert costs_at_3 == [1, 2, 3]

    def test_cheapen_refuses_a_zero_cost(self, capsys, tmp_path):
        path = tmp_path / "dfa.json"
        path.write_text(dfa_to_json(WeightedDfa(2, 0, {0: (0, 0)}, {0: (0, 5)})))
        rc, out, err = run_cli(capsys, "cheapen", "--dfa", "file", "--in", str(path))
        assert (rc, out) == (1, "")
        assert err == "error: state 0: zero cost 0 admits no dominating permutation row\n"

    def test_walk_trace(self, capsys):
        rc, out, _ = run_cli(
            capsys, "walk", "greedy", "--word", "1", "2", "3", "2",
            "--walk-word", "1", "3", "2",
        )
        doc = json.loads(out)
        assert doc["states"] == [0, 1, 3, 4]
        assert doc["total_cost"] == 4


class TestProbabilityCommands:
    def test_exact_p(self, capsys):
        rc, out, _ = run_cli(
            capsys, "exact-p", "--dfa", "subset", "--k", "3", "--L", "3",
            "--epsilon", "1e-9",
        )
        doc = json.loads(out)
        assert doc["p"] == 0.5
        assert (doc["p_numerator"], doc["p_denominator"]) == (1, 2)

    def test_exact_p_le_counts_integer_tie(self, capsys):
        # (1/2 - 0.1) * 5 * 5 = 10: cost 10 is counted under <=
        rc, out, _ = run_cli(
            capsys, "exact-p", "--dfa", "subset", "--k", "5", "--L", "5",
            "--epsilon", "0.1", "--comparator", "le",
        )
        assert rc == 0
        doc = json.loads(out)
        assert (doc["p_numerator"], doc["p_denominator"]) == (71, 120)

    def test_estimate_p_round_trip(self, capsys):
        rc, out, _ = run_cli(
            capsys, "estimate-p", "--dfa", "subset", "--k", "3", "--L", "3",
            "--epsilon", "1e-9", "--samples", "500", "--seed", "11",
        )
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True) + "\n" == out
        assert doc["seed"] == 11
        assert doc["comparator"] == "<"

    def test_estimate_p_thread_independent(self, capsys):
        args = [
            "estimate-p", "--dfa", "subset", "--k", "4", "--L", "4",
            "--epsilon", "0.1", "--samples", "800", "--seed", "5",
        ]
        _, out1, _ = run_cli(capsys, *args, "--threads", "1")
        _, out4, _ = run_cli(capsys, *args, "--threads", "4")
        assert out1 == out4

    def test_decompose(self, capsys):
        rc, out, _ = run_cli(
            capsys, "decompose", "--dfa", "subset", "--k", "3",
            "--perm", "3", "2", "1",
        )
        doc = json.loads(out)
        assert doc["y_total"] == 0
        assert doc["x_ranks"] == [3, 2, 1]

    def test_concentration(self, capsys):
        rc, out, _ = run_cli(
            capsys, "concentration", "--dfa", "subset", "--k", "8", "--M", "4",
            "--epsilon-star", "0.3", "--samples", "50", "--seed", "3",
        )
        doc = json.loads(out)
        assert len(doc["entries"]) == 9
        assert doc["c_con1"] == pytest.approx(0.0028125)


class TestBoundsCommands:
    def test_forL(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bounds", "forL", "--k", "10", "--L", "3", "--epsilon", "0.5"
        )
        assert json.loads(out)["log_value"] == pytest.approx(0.1410, abs=5e-5)

    def test_infeasibility_with_value(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bounds", "infeasibility", "--k", "3", "--r", "3", "--n", "4",
            "--f", "2",
        )
        assert json.loads(out)["certified"] is True

    def test_con(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bounds", "con", "--epsilon-star", "0.3", "--M", "4"
        )
        assert json.loads(out)["c_con1"] == pytest.approx(0.0028125)

    REQUIRED = {
        "forL": ["--k", "10", "--L", "3", "--epsilon", "0.1"],
        "birthday": ["--k", "10", "--L", "3"],
        "theorem-constants": ["--epsilon-star", "0.3"],
        "hoeffding-x": ["--k", "10", "--epsilon", "0.1"],
        "infeasibility": ["--k", "3", "--r", "3", "--n", "4", "--f", "2"],
        "gupta": ["--k", "3", "--n", "4", "--f", "2"],
        "loworder": ["--k", "10", "--epsilon", "0.1"],
        "con": ["--epsilon-star", "0.3", "--M", "4"],
    }

    @pytest.mark.parametrize("bound", sorted(REQUIRED))
    def test_each_missing_argument_is_one_line_exit_1(self, capsys, bound):
        flags = self.REQUIRED[bound]
        rc, _, _ = run_cli(capsys, "bounds", bound, *flags)
        assert rc == 0
        for i in range(0, len(flags), 2):
            rc, out, err = run_cli(capsys, "bounds", bound, *flags[:i], *flags[i + 2:])
            assert rc == 1, (bound, flags[i])
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert flags[i] in err


    NAN_INPUTS = [
        ["forL", "--k", "10", "--L", "3", "--epsilon", "nan"],
        ["hoeffding-x", "--k", "10", "--epsilon", "nan"],
        ["loworder", "--k", "10", "--epsilon", "nan"],
        ["con", "--epsilon-star", "nan", "--M", "3"],
        ["con", "--epsilon-star", "0.7", "--M", "3"],
        ["infeasibility", "--k", "3", "--r", "3", "--n", "4", "--f", "nan"],
        ["infeasibility", "--k", "3", "--r", "3", "--n", "4", "--log-f", "nan"],
        ["gupta", "--k", "3", "--n", "4", "--log-f", "nan"],
        ["forL", "--k", "10", "--L", "3", "--epsilon", "0.9"],
        ["forL", "--k", "10", "--L", "3", "--epsilon", "inf"],
        ["hoeffding-x", "--k", "10", "--epsilon", "0.9"],
        ["hoeffding-x", "--k", "10", "--epsilon", "inf"],
        ["loworder", "--k", "10", "--epsilon", "0.9"],
        ["loworder", "--k", "10", "--epsilon", "inf"],
        ["infeasibility", "--k", "3", "--r", "3", "--n", "4", "--f", "inf"],
        ["infeasibility", "--k", "3", "--r", "3", "--n", "4", "--log-f", "inf"],
        ["gupta", "--k", "3", "--n", "4", "--f", "inf"],
        ["gupta", "--k", "3", "--n", "4", "--log-f", "inf"],
    ]

    @pytest.mark.parametrize("argv", NAN_INPUTS, ids=" ".join)
    def test_nan_or_out_of_domain_input_is_one_line_exit_1(self, capsys, argv):
        rc, out, err = run_cli(capsys, "bounds", *argv)
        assert rc == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_zero_f_is_minus_infinity(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bounds", "infeasibility", "--k", "3", "--r", "3", "--n", "4",
            "--f", "0",
        )
        assert rc == 0
        assert json.loads(out)["log_f"] == float("-inf")


class TestBcp:
    def test_single(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bcp", "--word", "1", "2", "3", "--perm", "3", "2", "1"
        )
        assert json.loads(out)["contains"] is False
        rc, out, _ = run_cli(
            capsys, "bcp", "--word", "1", "2", "3", "--perm", "3", "2", "1",
            "--bidirectional",
        )
        assert json.loads(out)["contains"] is True

    def test_census_mode(self, capsys):
        rc, out, _ = run_cli(capsys, "bcp", "--word", "1", "2", "--k", "2")
        doc = json.loads(out)
        assert doc["superpattern"] is True  # rotations of 12 give both orders

    @pytest.mark.parametrize("flags, count", [([], 189), (["--bidirectional"], 378)])
    def test_census_counts_k7(self, capsys, flags, count):
        word = "1 2 3 4 5 6 7 1 2 3 4 5".split()
        rc, out, _ = run_cli(capsys, "bcp", "--word", *word, "--k", "7", *flags)
        assert rc == 0
        doc = json.loads(out)
        assert (doc["count"], doc["total"], doc["superpattern"]) == (count, 5040, False)

    def test_census_of_the_empty_word(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        for k, count, total in ((0, 1, 1), (1, 0, 1), (3, 0, 6)):
            rc, out, _ = run_cli(
                capsys, "bcp", "--word-file", str(path), "--k", str(k), "--bidirectional"
            )
            assert rc == 0
            doc = json.loads(out)
            assert (doc["word"], doc["count"], doc["total"]) == ([], count, total)


# the two Monte-Carlo commands, without --samples and --seed
_MC_COMMANDS = [
    ["estimate-p", "--dfa", "subset", "--k", "3", "--L", "3", "--epsilon", "0.1"],
    ["concentration", "--dfa", "subset", "--k", "4", "--M", "2", "--epsilon-star", "0.3"],
]


class TestExitCodes:
    def test_domain_error_is_1(self, capsys):
        rc, _, err = run_cli(capsys, "contains", "--word", "1", "2", "--perm", "1", "1")
        assert rc == 1
        assert err.strip().count("\n") == 0  # single-line diagnostic

    def test_bcp_negative_k_is_1_like_census(self, capsys):
        for command in ("bcp", "census"):
            rc, out, err = run_cli(capsys, command, "--word", "1", "2", "--k", "-1")
            assert (rc, out) == (1, "")
            assert err == "error: k must be non-negative\n"

    @pytest.mark.parametrize("argv, names", [
        (["superpattern", "--word", "1", "2", "1", "--k", "2", "--search-r", "3", "--n-max", "4"],
         ["--word", "--search-r"]),
        (["superpattern", "--word", "1", "2", "1", "--k", "2", "--n-max", "4"], ["--word", "--n-max"]),
        (["census", "--word", "3", "3", "3", "--word-file", "{path}", "--k", "2"],
         ["--word", "--word-file"]),
        (["contains", "--word", "1", "2", "--perm", "1", "--perm-file", "{path}"],
         ["--perm", "--perm-file"]),
    ])
    def test_refuses_flags_it_would_ignore(self, capsys, tmp_path, argv, names):
        path = tmp_path / "input.txt"
        path.write_text("1 2\n")
        argv = [str(path) if a == "{path}" else a for a in argv]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert len(err.strip().splitlines()) == 1
        assert all(name in err for name in names)

    def test_bcp_refuses_perm_with_k(self, capsys):
        rc, out, err = run_cli(
            capsys, "bcp", "--word", "1", "2", "--perm", "1", "2", "--k", "3"
        )
        assert (rc, out) == (1, "")
        assert len(err.strip().splitlines()) == 1
        assert "--perm" in err and "--k" in err

    # automaton documents of the wrong shape: each is refused with one line,
    # never a KeyError or TypeError, a dropped row or a rounded number
    ONE_ROW = '{"alphabet_size": 1, "root": 0, "rows": [%s]}'
    ROW = '{"state": 0, "edges": [{"letter": 1, "next": %s, "cost": %s}]}'
    MALFORMED_AUTOMATA = {
        "empty object": "{}",
        "list": "[]",
        "null": "null",
        "row without edges": ONE_ROW % '{"state": 0}',
        "rows not a list": '{"alphabet_size": 1, "root": 0, "rows": 5}',
        "list successor": ONE_ROW % (ROW % ("[0]", "1")),
        "boolean successor": ONE_ROW % f'{ROW % ("true", "1")}, {ROW.replace("0", "1", 1) % ("0", "1")}',
        "boolean root": ONE_ROW.replace('"root": 0', '"root": false') % (ROW % ("0", "1")),
        "null cost": ONE_ROW % (ROW % ("0", "null")),
        "fractional cost": ONE_ROW % (ROW % ("0", "1.5")),
        "boolean cost": ONE_ROW % (ROW % ("0", "true")),
        "fractional alphabet": ONE_ROW.replace("1,", "1.7,", 1) % (ROW % ("0", "1")),
        "boolean alphabet": ONE_ROW.replace("1,", "true,", 1) % (ROW % ("0", "1")),
        "state given twice": ONE_ROW % f'{ROW % ("0", "1")}, {ROW % ("0", "2")}',
    }

    @pytest.mark.parametrize("doc", MALFORMED_AUTOMATA.values(), ids=MALFORMED_AUTOMATA)
    def test_malformed_automaton_file_is_one_line_exit_1(self, capsys, tmp_path, doc):
        path = tmp_path / "dfa.json"
        path.write_text(doc)
        rc, out, err = run_cli(capsys, "walk", "file", "--in", str(path), "--walk-word", "1")
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_resource_error_is_2(self, capsys):
        rc, _, err = run_cli(capsys, "census", "--word", "1", "2", "--k", "11")
        assert rc == 2
        assert "cap" in err

    def test_usage_error_nonzero_single_line(self):
        rc, out, err = run_proc("contains", "--no-such-flag")
        assert rc == 1
        assert err.strip()
        assert len(err.strip().splitlines()) == 1

    def test_superpattern_without_a_mode_names_the_search_flags(self, capsys):
        rc, out, err = run_cli(capsys, "superpattern", "--k", "3")
        assert (rc, out, err) == (1, "", "error: superpattern needs --word or --search-r\n")
        # --r is the alphabet of --word, not the search alphabet
        rc, out, err = run_cli(capsys, "superpattern", "--k", "3", "--r", "4", "--n-max", "6")
        assert (rc, out, err) == (1, "", "error: superpattern --r does not read --n-max\n")
        rc, out, _ = run_cli(capsys, "superpattern", "--k", "3", "--search-r", "4", "--n-max", "6")
        assert rc == 0
        assert json.loads(out)["minimal_length"] == 6

    MC_DOMAIN_ERRORS = [
        ["exact-p", "--dfa", "subset", "--k", "3", "--L", "3", "--epsilon", "-0.7"],
        ["estimate-p", "--dfa", "subset", "--k", "3", "--L", "3", "--epsilon", "2",
         "--samples", "10", "--seed", "1"],
        *(
            ["estimate-p", "--dfa", "subset", "--k", "3", "--L", "3",
             "--epsilon", "0.1", "--samples", "10", "--seed", "1", "--threads", n]
            for n in ("0", "-3")
        ),
        *(
            ["concentration", "--dfa", "subset", "--k", "4", "--M", "2",
             "--epsilon-star", eps, "--samples", "10", "--seed", "1", "--threads", n]
            for eps, n in (("nan", "1"), ("-0.3", "1"), ("0.3", "0"), ("0.3", "-3"))
        ),
        # seeds key BLAKE2b as 16 signed bytes: [-2**127, 2**127)
        *(
            [*argv, "--samples", "5", "--seed", seed]
            for argv in _MC_COMMANDS for seed in (str(2**127), str(-(2**127) - 1))
        ),
    ]

    @pytest.mark.parametrize("argv", MC_DOMAIN_ERRORS, ids=" ".join)
    def test_probability_domain_error_is_one_line_exit_1(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", _MC_COMMANDS, ids=" ".join)
    def test_seed_range_ends_are_admitted(self, capsys, argv):
        for seed in (2**127 - 1, -(2**127)):
            rc, out, err = run_cli(capsys, *argv, "--samples", "5", "--seed", str(seed))
            assert (rc, err) == (0, "")
            assert json.loads(out)["seed"] == seed

    def test_success_is_0(self, capsys):
        rc, _, _ = run_cli(capsys, "bounds", "con", "--epsilon-star", "0.1", "--M", "2")
        assert rc == 0


class TestTextFormat:
    def test_text_output(self, capsys):
        rc, out, _ = run_cli(
            capsys, "census", "--word", "1", "2", "3", "2", "--k", "3",
            "--format", "text",
        )
        assert rc == 0
        assert "count: 2" in out


# stdout of every bound and of every automaton builder (through walk and dfa
# census), in json and text, of an automaton printed as text (dfa build,
# cheapen) and of the superpattern search, with the files the argvs name as
# {word}/{dfa}
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _with_files(tmp_path, line):
    paths = {}
    for name, text in GOLDEN["files"].items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    return [arg.format(**paths) for arg in line.split()]


class TestPinnedOutput:
    @pytest.mark.parametrize("line", sorted(GOLDEN["stdout"]))
    def test_stdout_byte_for_byte(self, capsys, tmp_path, line):
        rc, out, err = run_cli(capsys, *_with_files(tmp_path, line))
        assert (rc, err) == (0, "")
        assert out == GOLDEN["stdout"][line]


def _readme_cli_lines():
    """The superpatterns command lines of README's ## CLI block, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(line.split()) for line in block.replace("\\\n", " ").splitlines()]


class TestReadmeExamples:
    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_exits_0_with_one_document(self, capsys, line):
        prog, *argv = shlex.split(line)
        assert prog == "superpatterns"
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        if "--format" in argv and argv[argv.index("--format") + 1] == "dot":
            assert out.startswith("digraph") and out.rstrip().endswith("}")
        else:
            assert out.count("\n") == 1
            assert "schema_version" in json.loads(out)


# a value for each flag an automaton builder may read
_BUILDER_FLAGS = {
    "--word": "1 2", "--word-file": "{word}", "--r": "4", "--k": "3",
    "--states": "4", "--dfa-seed": "1", "--in": "{dfa}",
}
# kind: (the argv that builds it, the flags it reads)
_BUILDERS = {
    "greedy": ("--word 1 2 3 2", "--word --word-file --r"),
    "subset": ("--k 3", "--k"),
    "two-track": ("--k 4", "--k"),
    "random": ("--k 3 --states 4 --dfa-seed 2", "--k --states --dfa-seed"),
    "file": ("--in {dfa}", "--in"),
}
# a value for each flag of bounds, and the optional flags each bound reads
_BOUND_FLAGS = {
    "--k": "3", "--L": "3", "--n": "4", "--r": "3", "--M": "4", "--epsilon": "0.1",
    "--epsilon-star": "0.3", "--alpha": "0.5", "--f": "2", "--log-f": "1",
}
_BOUND_OPTIONAL = {"birthday": ["--alpha"], "infeasibility": ["--log-f"], "gupta": ["--log-f"]}
# a value for each flag that some dfa action reads; action: (the argv
# that runs it on an automaton, the flags it reads)
_DFA_ACTION_FLAGS = {
    "--walk-word": "--walk-word 1 2", "--start": "--start 1", "--budget": "--budget 4",
    "--include-infinite": "--include-infinite", "--max-enum": "--max-enum 200",
}
_DFA_ACTIONS = {
    "build": ("build subset --k 3", ""),
    "build --format dot": ("build subset --k 3 --format dot", "--include-infinite"),
    "dot": ("dot subset --k 3", "--include-infinite"),
    "cost": ("cost subset --k 3 --walk-word 3 1", "--walk-word --start"),
    "census": ("census subset --k 3", "--budget --max-enum"),
}


# a value for each flag that some mode of superpattern or bcp reads, and
# command: (the argv every mode shares, {mode: (the argv that runs it, the
# flags it reads)}); check is tried first, so a check flag chooses check
_MODE_FLAGS = {
    "--word": "1 2 1", "--word-file": "{word}", "--r": "2", "--search-r": "2", "--n-max": "3",
    "--max-enum": "50", "--perm": "2 1", "--perm-file": "{perm}", "--k": "2",
}
_MODES = {
    "superpattern": ("--k 2", {
        "check": ("--word 1 2 1", "--word --word-file --r"),
        "search": ("--search-r 2 --n-max 3", "--search-r --n-max"),
    }),
    "bcp": ("--word 1 2", {
        "check": ("--perm 2 1", "--perm --perm-file"),
        "census": ("--k 2", "--k --max-enum"),
    }),
}


def _with_perm_file(tmp_path, line):
    perm = tmp_path / "perm.txt"
    perm.write_text("2 1\n")
    return _with_files(tmp_path, line.replace("{perm}", str(perm)))


class TestUnreadFlags:
    """A flag that the named builder or bound does not read is refused
    with one line naming it, never dropped."""

    @pytest.mark.parametrize("kind, flag", [
        (kind, flag) for kind, (_, reads) in _BUILDERS.items() for flag in _BUILDER_FLAGS
        if flag not in reads.split()
    ])
    def test_builder_refuses_a_flag_it_does_not_read(self, capsys, tmp_path, kind, flag):
        line = f"walk --dfa {kind} {_BUILDERS[kind][0]} --walk-word 1 2"
        rc, _, _ = run_cli(capsys, *_with_files(tmp_path, line))
        assert rc == 0
        line += f" {flag} {_BUILDER_FLAGS[flag]}"
        rc, out, err = run_cli(capsys, *_with_files(tmp_path, line))
        assert (rc, out) == (1, "")
        assert err == f"error: --dfa {kind} does not read {flag}\n"

    def test_positional_builder_refuses_too(self, capsys):
        rc, out, err = run_cli(
            capsys, "dfa", "census", "subset", "--k", "3", "--states", "4", "--dfa-seed", "3"
        )
        assert (rc, out, err) == (1, "", "error: --dfa subset does not read --states\n")

    @pytest.mark.parametrize("bound, flag", [
        (bound, flag) for bound, given in sorted(TestBoundsCommands.REQUIRED.items())
        for flag in _BOUND_FLAGS if flag not in given + _BOUND_OPTIONAL.get(bound, [])
    ])
    def test_bound_refuses_a_flag_it_does_not_read(self, capsys, bound, flag):
        argv = ["bounds", bound, *TestBoundsCommands.REQUIRED[bound], flag, _BOUND_FLAGS[flag]]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == f"error: bounds {bound} does not read {flag}\n"

    @pytest.mark.parametrize("argv", [
        "contains --word-file {word} --r 9 --perm 1 2",
        "census --word-file {word} --r 9 --k 2",
        "bcp --word-file {word} --r 9 --k 2",
        "superpattern --word-file {word} --r 9 --k 2",
        "walk greedy --word-file {word} --r 9 --walk-word 1",
    ])
    def test_r_with_word_file_is_refused(self, capsys, tmp_path, argv):
        # the file's r= header gives the alphabet
        rc, out, err = run_cli(capsys, *_with_files(tmp_path, argv))
        assert (rc, out) == (1, "")
        assert err == "error: give --r or --word-file, not both: the file's r= header is its alphabet\n"

    @pytest.mark.parametrize("action, flag", [
        (action, flag) for action, (_, reads) in _DFA_ACTIONS.items() for flag in _DFA_ACTION_FLAGS
        if flag not in reads.split()
    ])
    def test_dfa_action_refuses_a_flag_it_does_not_read(self, capsys, action, flag):
        line = f"dfa {_DFA_ACTIONS[action][0]}"
        rc, _, _ = run_cli(capsys, *line.split())
        assert rc == 0
        rc, out, err = run_cli(capsys, *line.split(), *_DFA_ACTION_FLAGS[flag].split())
        assert (rc, out) == (1, "")
        assert err == f"error: dfa {line.split()[1]} does not read {flag}\n"

    def test_dfa_build_as_dot_reads_include_infinite(self, capsys):
        argv = ["dfa", "build", "greedy", "--word", "1", "2", "1", "--format", "dot"]
        rc, plain, _ = run_cli(capsys, *argv)
        rc2, out, err = run_cli(capsys, *argv, "--include-infinite")
        assert (rc, rc2, err) == (0, 0, "")
        assert out == run_cli(capsys, "dfa", "dot", *argv[2:-2], "--include-infinite")[1]
        assert out != plain

    @pytest.mark.parametrize("command, mode, flag", [
        (command, mode, flag) for command, (_, modes) in _MODES.items() for mode in modes
        for other, (_, flags) in modes.items() if other != mode for flag in flags.split()
    ])
    def test_mode_refuses_a_flag_it_does_not_read(self, capsys, tmp_path, command, mode, flag):
        common, modes = _MODES[command]
        line = f"{command} {common} {modes[mode][0]}"
        rc, _, _ = run_cli(capsys, *_with_perm_file(tmp_path, line))
        assert rc == 0
        rc, out, err = run_cli(capsys, *_with_perm_file(tmp_path, f"{line} {flag} {_MODE_FLAGS[flag]}"))
        assert (rc, out) == (1, "")
        # the refusal names the flag that chose the mode: a check flag
        # chooses check even after the flags of the other mode
        chooser, refused = modes[mode][0].split()[0], flag
        if mode != "check":
            chooser, refused = flag, chooser
        assert err == f"error: {command} {chooser} does not read {refused}\n"

    @pytest.mark.parametrize("argv, err", [
        ("bcp --word 1 2 3 --perm 1 2 --max-enum 1", "error: bcp --perm does not read --max-enum"),
        # the k! cap is --max-enum's, and a cheapened automaton has no
        # infinite edge: those two flags are gone
        (
            "exact-p --dfa subset --k 3 --L 3 --epsilon 0.1 --max-k 1",
            "superpatterns: error: unrecognized arguments: --max-k 1",
        ),
        (
            "cheapen greedy --word 1 2 3 2 --include-infinite",
            "superpatterns: error: unrecognized arguments: --include-infinite",
        ),
    ])
    def test_flags_that_used_to_be_dropped(self, capsys, argv, err):
        # each of these argvs once exited 0 with its last flag ignored
        assert run_cli(capsys, *argv.split()) == (1, "", err + "\n")

    @pytest.mark.parametrize("argv, message", [
        ("walk subset --dfa greedy --k 3 --walk-word 1", "give a builder argument or --dfa, not both"),
        ("dfa census subset --dfa subset --k 3", "give a builder argument or --dfa, not both"),
        ("cheapen two-track --dfa two-track --k 3", "give a builder argument or --dfa, not both"),
        ("bounds gupta --k 3 --n 4 --f 2 --log-f 9", "give --f or --log-f, not both"),
        ("bounds infeasibility --k 3 --r 3 --n 4 --f 2 --log-f 0.5", "give --f or --log-f, not both"),
        ("superpattern --search-r 2 --n-max 4 --k 2 --r 7", "superpattern --r does not read --search-r"),
    ])
    def test_pairs_of_which_one_would_be_dropped(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, *argv.split())
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        ("walk --walk-word 1", "no automaton named: use --dfa or a builder argument"),
        ("walk subset --walk-word 1", "--dfa subset needs --k"),
        ("walk two-track --walk-word 1", "--dfa two-track needs --k"),
        ("walk random --walk-word 1", "--dfa random needs --k and --states"),
        ("walk random --k 3 --walk-word 1", "--dfa random needs --states"),
        ("walk random --states 3 --walk-word 1", "--dfa random needs --k"),
        ("walk file --walk-word 1", "--dfa file needs --in"),
        ("walk greedy --walk-word 1", "need --word or --word-file"),
        ("bounds infeasibility --k 3 --n 4", "bounds infeasibility needs --r"),
        ("bounds forL --k 3", "bounds forL needs --L and --epsilon"),
        ("bounds gupta --k 3 --n 4", "need --f or --log-f"),
        ("bcp --word 1 2", "bcp needs --perm or --k"),
        ("bcp --word 1 2 --max-enum 3", "bcp --max-enum needs --k"),
        ("superpattern --k 2 --n-max 3", "superpattern --n-max needs --search-r"),
    ])
    def test_missing_flag_messages(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, *argv.split())
        assert (rc, out, err) == (1, "", f"error: {message}\n")


_WORD_FLAGS = "--word --word-file --r"
_AUTOMATON_FLAGS = "--dfa --word --word-file --r --k --states --dfa-seed --in"
# command: {what reads them: its optional flags}; every subcommand also
# takes --format, which the printer reads
_READ_BY = {
    "contains": {"the word": _WORD_FLAGS, "the permutation": "--perm --perm-file"},
    "census": {"the word": _WORD_FLAGS, "pattern_set": "--k --list --max-enum"},
    "superpattern": {"both modes": "--k --max-enum", "check": _WORD_FLAGS, "search": "--search-r --n-max"},
    "f-oracle": {"f_oracle": "--k --n --max-enum"},
    "dfa": {
        "the builders": _AUTOMATON_FLAGS, "cost": "--walk-word --start",
        "census": "--budget --max-enum", "dot": "--include-infinite",
    },
    "cheapen": {"the builders": _AUTOMATON_FLAGS},
    "walk": {"the builders": _AUTOMATON_FLAGS, "walk_cost": "--walk-word --start"},
    "exact-p": {"the builders": _AUTOMATON_FLAGS, "exact_P": "--L --epsilon --state --comparator --max-enum"},
    "estimate-p": {
        "the builders": _AUTOMATON_FLAGS,
        "estimate_P": "--L --epsilon --samples --seed --state --comparator --threads",
    },
    "decompose": {"the builders": _AUTOMATON_FLAGS, "xy_decompose": "--perm --perm-file"},
    "concentration": {
        "the builders": _AUTOMATON_FLAGS,
        "concentration_experiment": "--M --epsilon-star --samples --seed --threads --max-enum",
    },
    "bcp": {
        "both modes": f"{_WORD_FLAGS} --bidirectional", "check": "--perm --perm-file",
        "census": "--k --max-enum",
    },
    "bounds": {"the bounds": "--k --L --n --r --M --epsilon --epsilon-star --alpha --f --log-f"},
}


# command: the flags argparse requires; every other flag is optional
_REQUIRED = {
    "census": "--k",
    "superpattern": "--k",
    "f-oracle": "--k --n",
    "walk": "--walk-word",
    "exact-p": "--L --epsilon",
    "estimate-p": "--L --epsilon --samples --seed",
    "concentration": "--M --epsilon-star --samples --seed",
}


def _subparsers():
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return action.choices


class TestEveryFlagIsRead:
    def test_every_optional_flag_has_a_reader(self):
        assert sorted(_subparsers()) == sorted(_READ_BY)
        for command, sp in _subparsers().items():
            flags = {o for a in sp._actions for o in a.option_strings if o.startswith("--")}
            read = {f for group in _READ_BY[command].values() for f in group.split()}
            assert flags == read | {"--help", "--format"}, command

    def test_required_flags(self):
        for command, sp in _subparsers().items():
            required = {o for a in sp._actions if a.required for o in a.option_strings}
            assert required == set(_REQUIRED.get(command, "").split()), command

    def test_every_declared_flag_is_taken(self):
        taken = {dest for needs, takes, *_ in cli._COMMANDS.values() for dest in needs + takes}
        assert taken == set(cli._FLAGS)

    @pytest.mark.parametrize("command", sorted(_READ_BY))
    def test_help_exits_0(self, capsys, command):
        rc, out, err = run_cli(capsys, command, "--help")
        assert (rc, err) == (0, "")
        assert out.startswith(f"usage: superpatterns {command}")


# a query of each of the five subcommands that count k! (superpattern in
# both modes), each at k = 3
_K_FACTORIAL_QUERIES = [
    "census --word 1 2 3 --k 3",
    "superpattern --word 1 2 3 --k 3",
    "superpattern --k 3 --search-r 1 --n-max 3",
    "f-oracle --k 3 --n 2",
    "dfa census subset --k 3",
    "bcp --word 1 2 3 --k 3",
]


class TestCapFlags:
    def test_max_enum_admits_k_factorial_and_default_refuses(self, capsys):
        # 10! <= 10^7 < 11!: the default admits k <= 10
        argv = ["census", "--word", "1", "2", "--k", "11"]
        rc, out, _ = run_cli(capsys, *argv, "--max-enum", str(math.factorial(11)))
        assert rc == 0
        assert json.loads(out)["count"] == 0
        rc, _, err = run_cli(capsys, *argv, "--max-enum", str(math.factorial(11) - 1))
        assert rc == 2 and err == "resource limit: pattern_set: 11! exceeds the enumeration cap 39916799\n"
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert run_cli(capsys, "census", "--word", "1", "2", "--k", "10")[0] == 0

    @pytest.mark.parametrize("argv", _K_FACTORIAL_QUERIES)
    def test_zero_cap_refuses_every_k_factorial_query(self, capsys, argv):
        # the old --max-k 3 is --max-enum 3! = 6, and --max-k 0 is --max-enum 0
        assert run_cli(capsys, *argv.split(), "--max-enum", "6")[0] == 0
        assert run_cli(capsys, *argv.split(), "--max-enum", "5")[0] == 2
        rc, out, err = run_cli(capsys, *argv.split(), "--max-enum", "0")
        assert (rc, out) == (2, "")
        assert err.endswith("exceeds the enumeration cap 0\n") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        "census --word 1 2 --k 2", "superpattern --word 1 2 1 --k 2", "f-oracle --k 2 --n 2",
        "dfa census subset --k 2", "bcp --word 1 2 --k 2", "exact-p --dfa subset --k 3 --L 1 --epsilon 0.1",
    ])
    def test_max_k_flag_is_refused(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv.split(), "--max-k", "3")
        assert (rc, out, err) == (1, "", "superpatterns: error: unrecognized arguments: --max-k 3\n")

    def test_zero_max_enum_is_honoured(self, capsys):
        rc, _, err = run_cli(
            capsys, "exact-p", "--dfa", "subset", "--k", "3", "--L", "1",
            "--epsilon", "0.1", "--max-enum", "0",
        )
        assert rc == 2
        assert "cap" in err

    def test_f_oracle_reads_the_one_cap(self, capsys, monkeypatch):
        # (3, 4) visits 1 + 7 + 6 = 14 canonical words
        rc, out, _ = run_cli(capsys, "f-oracle", "--k", "3", "--n", "4", "--max-enum", "14")
        assert rc == 0 and json.loads(out)["max_count"] == 2
        rc, _, err = run_cli(capsys, "f-oracle", "--k", "3", "--n", "4", "--max-enum", "13")
        assert rc == 2 and "cap" in err
        # (4, 3) visits 5 words, but 4! = 24
        rc, _, err = run_cli(capsys, "f-oracle", "--k", "4", "--n", "3", "--max-enum", "23")
        assert rc == 2 and "4!" in err
        monkeypatch.setenv("SUPERPATTERNS_MAX_ENUM", "13")
        rc, _, err = run_cli(capsys, "f-oracle", "--k", "3", "--n", "4")
        assert rc == 2 and "cap 13" in err
        rc, _, _ = run_cli(capsys, "f-oracle", "--k", "3", "--n", "4", "--max-enum", "14")
        assert rc == 0

    def test_f_oracle_long_words(self, capsys):
        # k = 1 visits one word for any n; k = 2 passes the cap within
        # its first rows, long before n = 10^7
        rc, out, _ = run_cli(capsys, "f-oracle", "--k", "1", "--n", "5000")
        assert rc == 0 and json.loads(out)["witness"] == [1] * 5000
        rc, out, err = run_cli(capsys, "f-oracle", "--k", "2", "--n", "10000000")
        assert rc == 2 and out == "" and len(err.splitlines()) == 1 and "cap" in err

    def test_superpattern_check_reads_max_enum(self, capsys):
        # check mode counts k! too
        argv = ["superpattern", "--word", "1", "2", "1", "--k", "2"]
        rc, out, _ = run_cli(capsys, *argv, "--max-enum", "2")
        assert rc == 0 and json.loads(out)["superpattern"] is True
        rc, out, err = run_cli(capsys, *argv, "--max-enum", "1")
        assert (rc, out) == (2, "") and "2! exceeds the enumeration cap 1" in err

    def test_bcp_census_capped(self, capsys):
        rc, _, err = run_cli(capsys, "bcp", "--word", "1", "2", "--k", "11")
        assert rc == 2
        rc, out, _ = run_cli(
            capsys, "bcp", "--word", "1", "2", "--k", "11", "--max-enum", str(math.factorial(11))
        )
        assert rc == 0
        assert json.loads(out)["count"] == 0


class TestHugeCounts:
    # each count stops at its first running value over the cap: no huge
    # integer is built, formatted or enumerated
    @pytest.mark.parametrize("argv", [
        # the sum of every perm(k, L) has more digits than str() formats
        "exact-p --dfa subset --k 4000 --L 4000 --epsilon 0.1",
        "exact-p --dfa subset --k 2000 --L 2000 --epsilon 0.1",
        # 3^(10^7) takes seconds to build
        "superpattern --k 3 --search-r 3 --n-max 10000000",
        # 1^n_max never exceeds the cap: n_max itself is counted
        "superpattern --k 3 --search-r 1 --n-max 100000000",
    ])
    def test_one_line_exit_2_within_a_second(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.endswith("exceeds the enumeration cap 10000000\n")


    def test_admitted_search_prints_one_short_line(self, capsys):
        # the answer is one length, so nothing grows with n_max: no row
        # per n is built or printed (10^6 of them took about 400 MB)
        import tracemalloc

        tracemalloc.start()
        try:
            rc, out, err = run_cli(capsys, *"superpattern --k 3 --search-r 1 --n-max 1000000".split())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rc, err) == (0, "")
        assert out.count("\n") == 1 and len(out) < 200
        doc = json.loads(out)
        assert (doc["n_max"], doc["minimal_length"]) == (10**6, None)
        assert "rows" not in doc
        assert peak < 10**6


class TestConcentrationIsBounded:
    # the window pairs grow as M^2: M > k is refused (exit 1), and the
    # (M - 1)^2 pairs count against the one cap (exit 2)
    ARGV = "concentration --dfa subset --k 4 --epsilon-star 0.3 --samples 5 --seed 1".split()

    def test_more_windows_than_letters_is_exit_1(self, capsys):
        # M = 300 used to print 4.4 MB of JSON after about 3 s
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, *self.ARGV, "--M", "300")
        assert time.perf_counter() - start < 1.0
        assert (rc, out, err) == (1, "", "error: need M <= k = 4, got M = 300\n")
        assert run_cli(capsys, *self.ARGV, "--M", "5")[0] == 1
        assert run_cli(capsys, *self.ARGV, "--M", "4")[0] == 0

    def test_window_pairs_over_the_cap_is_exit_2(self, capsys, monkeypatch):
        rc, out, err = run_cli(capsys, *self.ARGV, "--M", "4", "--max-enum", "8")
        assert (rc, out) == (2, "")
        assert err == "resource limit: concentration: 3^2 window pairs exceeds the enumeration cap 8\n"
        rc, out, _ = run_cli(capsys, *self.ARGV, "--M", "4", "--max-enum", "9")
        assert rc == 0 and len(json.loads(out)["entries"]) == 9
        monkeypatch.setenv("SUPERPATTERNS_MAX_ENUM", "3")
        assert run_cli(capsys, *self.ARGV, "--M", "3")[0] == 2
        assert run_cli(capsys, *self.ARGV, "--M", "2")[0] == 0


class TestEnvCaps:
    def test_env_override(self):
        rc, out, err = run_proc(
            "census", "--word", "1", "2", "--k", "11",
        )
        assert rc == 2
        import os

        env = dict(os.environ, SUPERPATTERNS_MAX_ENUM=str(math.factorial(11)))
        proc = run_python(
            "-m", "superpatterns.cli", "census", "--word", "1", "2", "--k", "11", env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 0

    def test_malformed_env_cap_is_one_line_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERPATTERNS_MAX_ENUM", "abc")
        rc, out, err = run_cli(capsys, "census", "--word", "1", "2", "--k", "2")
        assert (rc, out) == (1, "")
        assert err == "error: SUPERPATTERNS_MAX_ENUM must be an integer\n"

    @pytest.mark.parametrize("value", ["12", "0", "abc"])
    @pytest.mark.parametrize("argv", ["census --word 1 2 --k 2", "f-oracle --k 2 --n 2 --max-enum 9"])
    def test_max_k_variable_is_refused(self, capsys, monkeypatch, value, argv):
        # a lowered k! cap would otherwise be dropped without a word
        monkeypatch.setenv("SUPERPATTERNS_MAX_K", value)
        rc, out, err = run_cli(capsys, *argv.split())
        assert (rc, out) == (1, "")
        assert err == "error: SUPERPATTERNS_MAX_K is no longer read; SUPERPATTERNS_MAX_ENUM caps k!\n"


def _fresh_interpreter_prints(code):
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# run a subcommand with its JSON sent to /dev/null, then print a module check
_MAIN_THEN = (
    "import contextlib, os, sys\n"
    "from superpatterns.cli import main\n"
    "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
    "    assert main({argv!r}) == 0\n"
    "print({check})\n"
)


class TestStartup:
    def test_cli_import_does_not_load_scipy(self):
        code = "import sys, superpatterns.cli; print('scipy' in sys.modules)"
        assert _fresh_interpreter_prints(code) == "False"

    def test_clopper_pearson_does_not_load_scipy_stats(self):
        code = (
            "import sys; from superpatterns import clopper_pearson\n"
            "clopper_pearson(3, 10); print('scipy.stats' in sys.modules)"
        )
        assert _fresh_interpreter_prints(code) == "False"

    def test_estimate_p_does_not_load_scipy_stats(self):
        argv = ["estimate-p", "--dfa", "subset", "--k", "6", "--L", "6",
                "--epsilon", "0.1", "--samples", "200", "--seed", "1"]
        code = _MAIN_THEN.format(argv=argv, check="'scipy.stats' in sys.modules")
        assert _fresh_interpreter_prints(code) == "False"

    def test_contains_does_not_load_numpy(self):
        argv = ["contains", "--word", "1", "3", "2", "4", "2", "--perm", "1", "3", "2"]
        code = _MAIN_THEN.format(argv=argv, check="'numpy' in sys.modules")
        assert _fresh_interpreter_prints(code) == "False"

    @pytest.mark.parametrize("argv", [
        ["dfa", "census", "subset", "--k", "6"],
        ["walk", "two-track", "--k", "4", "--walk-word", "1", "3", "2", "4"],
    ], ids=["dfa-census", "walk"])
    def test_exact_and_walk_commands_do_not_load_numpy(self, argv):
        # dfa.py imports numpy only where a table automaton builds _tables
        code = _MAIN_THEN.format(argv=argv, check="'numpy' in sys.modules")
        assert _fresh_interpreter_prints(code) == "False"


_AUTOMATON_COMMANDS = ["decompose", "dfa", "cheapen", "walk", "estimate-p", "concentration"]
_WALK_COMMANDS = ["decompose", "walk", "estimate-p", "concentration"]
_FLOATS = (
    st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.5])
    | st.sampled_from([0.0, 1.0, float("nan"), float("inf"), float("-inf")])
    | st.floats(-1, 3)
)


def _max_enum_of_max_k(m):
    """The --max-enum that admits the k! queries the old --max-k m did."""
    return math.factorial(m) if m > 0 else m


@st.composite
def _cli_argv(draw):
    """argv of every subcommand but exact-p (see _exact_argv) over small
    integers; most draws are in the domain, some are not. In half the draws
    every flag a command needs is there, in the rest each may be missing.
    Half the draws of the commands that walk or sample (_WALK_COMMANDS)
    have every value in their domain.
    k, n, --samples and the search sizes stay small: they size real work."""
    # half the draws go to bcp, census and decompose, as many as when they were the only ones
    command = draw(st.sampled_from(["bcp", "census", "decompose"]) | st.sampled_from([
        "contains", "superpattern", "f-oracle", "bounds",
        "dfa", "cheapen", "walk", "estimate-p", "concentration",
    ]))
    small = st.integers(-2, 7)
    # as the old k! cap drew from small, and as the word cap did
    caps = small.map(_max_enum_of_max_k) | st.integers(0, 5000)
    k = draw(st.integers(-2, 6))
    word = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7) | st.lists(small, max_size=7))
    perm = draw(st.permutations(range(1, max(k, 1) + 1)) | st.lists(small, max_size=6))
    # in their domain: a k-DFA, k >= 1, words over [k], every needed flag;
    # so the fuzz reaches their output too
    valid = command in _WALK_COMMANDS and draw(st.booleans())
    needed = 4 if valid or draw(st.booleans()) else 3

    def flag(name, *values, odds=needed):
        # the flag appears in odds of 4 draws
        return [name, *map(str, values)] if draw(st.integers(1, 4)) <= odds else []

    def number(name, values, odds=needed):
        # --name=value, so a negative value is not read as a flag
        return [f"{name}={draw(values)!r}"] if draw(st.integers(1, 4)) <= odds else []

    if command == "f-oracle":
        return [
            command, *number("--k", st.integers(-1, 4)), *number("--n", st.integers(-1, 6)),
            *number("--max-enum", st.integers(0, 200), odds=1),
        ]
    if command == "bounds":
        bound = draw(st.sampled_from(sorted(TestBoundsCommands.REQUIRED)))
        uses = TestBoundsCommands.REQUIRED[bound][::2]
        values = dict.fromkeys(("--k", "--L", "--n", "--r", "--M"), small)
        floats = ("--epsilon", "--epsilon-star", "--alpha", "--f", "--log-f")
        values.update(dict.fromkeys(floats, _FLOATS))
        needs, takes, _ = cli._BOUNDS[bound]
        reads = [cli._flag(dest) for dest in needs + takes]
        argv = [command, bound]
        # the flags the bound reads; in one draw in 8, one it does not read, which is refused
        for name in reads:
            argv += number(name, values[name], odds=needed if name in uses else 1)
        if draw(st.integers(1, 8)) == 1:
            name = draw(st.sampled_from(sorted(set(values) - set(reads))))
            argv += number(name, values[name], odds=4)
        return argv
    if command in cli._MODES:
        # the flags every mode reads, then the flags of one mode (from
        # cli._MODES), each in its odds of 4 draws; in one draw in 8, one
        # flag that only the other mode reads, which is refused
        modes = cli._MODES[command]
        if command == "superpattern":
            argv = [command, *flag("--k", k), *number("--max-enum", caps, odds=1)]
        else:
            argv = [command, *flag("--word", *word), *flag("--bidirectional", odds=2)]
        values = {
            "word": (word, needed), "r": ([draw(small)], 1), "search_r": ([draw(st.integers(-1, 4))], needed),
            "n_max": ([draw(st.integers(-1, 6))], needed), "max_enum": ([draw(caps)], 1),
            "perm": (perm, needed), "k": ([k], needed),
        }
        needs, takes, _ = modes[draw(st.sampled_from(sorted(modes)))]
        for dest in needs + takes:
            if dest in values:
                argv += flag(cli._flag(dest), *values[dest][0], odds=values[dest][1])
        if draw(st.integers(1, 8)) == 1:
            others = {dest for n, t, _ in modes.values() for dest in n + t} - set(needs + takes)
            dest = draw(st.sampled_from(sorted(others & set(values))))
            argv += flag(cli._flag(dest), *values[dest][0], odds=4)
        return argv

    argv = [command]
    if command == "dfa":
        argv.append(draw(st.sampled_from(["build", "dot", "cost", "census"])))
    if command in _AUTOMATON_COMMANDS:
        if valid:
            kind = draw(st.sampled_from(["subset", "two-track", "random"]))
            k = 2 * draw(st.integers(1, 3)) if kind == "two-track" else draw(st.integers(1, 6))
            perm = draw(st.permutations(range(1, k + 1)))
        else:
            # the subset automaton is a k-DFA at every k >= 1, so it is drawn twice as often
            kind = draw(st.sampled_from(["subset", "subset", "two-track", "random", "greedy", "file"]))
        if command in ("dfa", "cheapen", "walk") and draw(st.booleans()):
            argv.append(kind)  # the positional builder
        else:
            argv += flag("--dfa", kind)
        # the flags the builder reads, each in its odds of 4 draws; in one
        # draw in 8, one flag that only other builders read, which is refused
        states = draw(st.integers(1, 7) if valid else small)
        values = {
            "word": (word, needed), "k": ([k], needed), "states": ([states], needed),
            "dfa_seed": ([draw(small)], 1), "in_path": (["no-such-automaton.json"], 1),
        }
        needs, takes, _ = cli._BUILDERS[kind]
        for dest in needs + takes:
            if dest in values:
                argv += flag(cli._flag(dest), *values[dest][0], odds=values[dest][1])
        if not valid and draw(st.integers(1, 8)) == 1:
            dest = draw(st.sampled_from(sorted(set(values) - set(needs + takes))))
            argv += flag(cli._flag(dest), *values[dest][0], odds=4)
    else:
        argv += flag("--word", *word)
        if command != "contains":
            argv += flag("--k", k)

    if command == "decompose":
        return argv + flag("--perm", *perm)
    if command == "dfa":
        # the flags the action reads (from cli._ACTIONS, where build written
        # as DOT is dot); in one draw in 8, one that only other actions read
        action = argv[1]
        if action == "build" and draw(st.booleans()):
            argv += ["--format", "dot"]
            action = "dot"
        values = {
            "walk_word": (perm, needed), "start": ([draw(small)], 1),
            "budget": ([draw(st.integers(-2, 30))], 1), "include_infinite": ([], 2),
            "max_enum": ([draw(caps)], 1),
        }
        needs, takes, _ = cli._ACTIONS[action]
        for dest in needs + takes:
            argv += flag(cli._flag(dest), *values[dest][0], odds=values[dest][1])
        if draw(st.integers(1, 8)) == 1:
            dest = draw(st.sampled_from(sorted(set(values) - set(needs + takes))))
            argv += flag(cli._flag(dest), *values[dest][0], odds=4)
        return argv
    if command == "cheapen":
        return argv
    if command == "walk":
        return argv + flag("--walk-word", *perm) + flag("--start", draw(small), odds=1)
    if command in ("estimate-p", "concentration"):
        argv += number("--samples", st.integers(1 if valid else -1, 40)) + number("--seed", small)
        argv += number("--threads", st.integers(1 if valid else -1, 3), odds=1)
        if command == "concentration":
            M = st.integers(2, 6) if valid else st.integers(2, 6) | small
            epsilon_star = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.45]) if valid else _FLOATS
            return argv + number("--M", M) + number("--epsilon-star", epsilon_star)
        L = st.integers(0, k) if valid else st.integers(-1, max(k, 0) + 1)
        epsilon = st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.3, 0.5]) if valid else _FLOATS
        argv += number("--L", L) + number("--epsilon", epsilon)
        argv += number("--state", small, odds=1)
        return argv + flag("--comparator", draw(st.sampled_from(["lt", "le"])), odds=1)
    if command == "contains":
        return argv + flag("--perm", *perm) + flag("--r", draw(small), odds=1)
    argv += flag("--r", draw(small), odds=1) + flag("--max-enum", draw(caps), odds=1)
    return argv + flag("--list", odds=2)


@st.composite
def _exact_argv(draw):
    """exact-p or dfa census argv on the subset, two-track or random
    automaton with k <= 8, or dfa census on a greedy automaton with its
    infinite costs: L from -1 to k+1, epsilons inside and outside [0, 1/2]
    (NaN and infinities too), states, budgets and caps; the optional flags
    may be missing. Half the exact-p draws are in the domain on a
    two-track or random automaton with k <= 6."""
    k = draw(st.integers(-1, 8))
    epsilon = draw(
        st.sampled_from([0.0, 0.1, 0.25, 0.35, 0.5])
        | st.floats(-1, 2)
        | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    )

    def flag(name, *values, odds=3):
        # the flag appears in odds of 4 draws
        return [name, *map(str, values)] if draw(st.integers(1, 4)) <= odds else []

    kind = draw(st.sampled_from(["subset", "two-track", "random"]))
    automaton = ["--dfa", kind, "--k", str(k)]
    if kind == "random":
        automaton += flag("--states", draw(st.integers(-1, 6)))
        automaton += flag("--dfa-seed", draw(st.integers(0, 99)), odds=2)
    if draw(st.booleans()):
        if draw(st.integers(1, 4)) == 1:
            # the greedy builder reads only its word
            word = draw(st.lists(st.integers(1, 6), min_size=1, max_size=9))
            automaton = ["--dfa", "greedy", "--word", *map(str, word)]
        return [
            "dfa", "census", *automaton,
            *flag("--max-enum", _max_enum_of_max_k(draw(st.integers(0, 9))), odds=1),
            *flag("--budget", draw(st.integers(-2, 70)), odds=2),
        ]
    if draw(st.integers(1, 4)) <= 2:
        # in the domain on a table automaton with k <= 6, so every run
        # checks the table DP against enumeration (see _check_exact_output)
        if draw(st.booleans()):
            k = 2 * draw(st.integers(1, 3))
            table, states = ["two-track", "--k", str(k)], range(-k // 2, k // 2 + 1)
        else:
            k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
            table = ["random", "--k", str(k), "--states", str(n), "--dfa-seed", str(draw(st.integers(0, 99)))]
            states = range(n)
        return [
            "exact-p", "--dfa", *table, f"--L={draw(st.integers(0, k))}",
            f"--epsilon={draw(st.sampled_from([0.0, 0.1, 0.25, 0.35, 0.5]) | st.floats(0, 0.5))!r}",
            *flag("--comparator", draw(st.sampled_from(["lt", "le"])), odds=2),
            *flag("--state", draw(st.sampled_from(states)), odds=2),
        ]
    return [
        # exact-p reads the one cap, on its injective words
        "exact-p", *automaton, *flag("--max-enum", draw(st.integers(0, 10**5)), odds=1),
        # --name=value, so a negative value is not read as a flag
        f"--L={draw(st.integers(-1, max(k, 0) + 1))}", f"--epsilon={epsilon!r}",
        *flag("--comparator", draw(st.sampled_from(["lt", "le"])), odds=2),
        *flag("--state", draw(st.integers(-5, 2**max(k, 0))), odds=1),
    ]


def _value(argv, name, default=None):
    """The value after flag name in argv, or after --name= (a string)."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    return default


def _automaton_of(argv):
    """The automaton an _exact_argv draw names, built without the CLI."""
    kind, k = _value(argv, "--dfa"), _value(argv, "--k")
    if kind == "greedy":
        at = argv.index("--word") + 1
        word = []
        while at < len(argv) and not argv[at].startswith("--"):
            word.append(int(argv[at]))
            at += 1
        return build_greedy_dfa(as_word(word))
    if kind == "subset":
        return build_subset_dfa(int(k))
    if kind == "two-track":
        return build_two_track_dfa(int(k))
    return random_k_dfa(int(k), int(_value(argv, "--states")), int(_value(argv, "--dfa-seed", 0)))


def _check_exact_output(argv, out):
    """For k <= 6, the printed census or P(v, L, eps) against plain
    enumeration (tests/oracles.py)."""
    doc = json.loads(out)
    if doc["k"] > 6:
        return
    dfa = _automaton_of(argv)
    k = dfa.alphabet_size
    if argv[0] == "dfa":
        census = brute_injective_costs(dfa, dfa.root, k)
        assert doc["census"] == [
            {"cost": "inf" if c == INFINITY else c, "count": census[c]}
            for c in sorted(census, key=lambda c: (c == INFINITY, c))
        ], argv
        return
    L, state = doc["L"], doc["state"]
    threshold = (Fraction(1, 2) - Fraction(_value(argv, "--epsilon"))) * k * L
    strict = _value(argv, "--comparator", "lt") == "lt"
    dist = brute_injective_costs(dfa, state, L)
    hits = sum(n for c, n in dist.items() if (c < threshold if strict else c <= threshold))
    assert Fraction(doc["p_numerator"], doc["p_denominator"]) == Fraction(hits, math.perm(k, L)), argv


def _assert_cli_contract(argv):
    """Exit 0, 1 or 2, no traceback; on success one JSON document (a DOT
    graph for dfa dot and dfa build --format dot) and nothing on stderr,
    otherwise nothing on stdout and one line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        if argv[:2] == ["dfa", "dot"] or argv[:2] == ["dfa", "build"] and "dot" in argv:
            assert out.getvalue().startswith("digraph {") and out.getvalue().endswith("}\n")
        else:
            doc = json.loads(out.getvalue())
            # dfa build and cheapen print an automaton, with no command field
            if argv[0] == "dfa" and argv[1] in ("cost", "census"):
                assert doc["command"] == f"dfa {argv[1]}"
            elif argv[:2] != ["dfa", "build"] and argv[0] != "cheapen":
                assert doc["command"] == argv[0]
            if argv[:2] == ["dfa", "cost"]:
                # walk's payload without its states and step costs
                assert list(doc) == ["command", "schema_version", "start", "total_cost", "walk_word"]
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().strip().splitlines()) == 1, argv
    return rc, out.getvalue()


class TestCliFuzz:
    @given(_cli_argv())
    @settings(max_examples=600, deadline=None)
    def test_exit_code_and_one_line_diagnostic(self, argv):
        _assert_cli_contract(argv)

    @given(_exact_argv())
    @settings(max_examples=400, deadline=None)
    def test_exact_p_and_dfa_census(self, argv):
        rc, out = _assert_cli_contract(argv)
        if rc == 0:
            _check_exact_output(argv, out)
