import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topocode
from topocode.cli import main
from topocode.tables import reproduce_table1, reproduce_table2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def decimal(n):
    """str(n) past the interpreter's int-to-string digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def write_k2(tmp_path):
    blob = {
        "vertices": [1, 2],
        "edges": [[1, 2]],
        "vcolors": {"1": 1, "2": 2},
        "ecolors": {"1,2": 3},
    }
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestStringCommands:
    def test_add_matches_table1(self, capsys):
        code, out, _ = run_cli(capsys, "string", "add", "1013412", "2143101", "--ring", "mod10")
        assert code == 0
        assert out.strip() == "3156513"

    def test_sub(self, capsys):
        code, out, _ = run_cli(capsys, "string", "sub", "1013412", "2143101", "--ring", "mod10")
        assert code == 0 and out.strip() == "9970311"

    def test_complement(self, capsys):
        code, out, _ = run_cli(capsys, "string", "complement", "1013412")
        assert code == 0 and out.strip() == "8986587"

    def test_reverse(self, capsys):
        code, out, _ = run_cli(capsys, "string", "reverse", "1013412")
        assert code == 0 and out == "2143101\n"

    def test_scale(self, capsys):
        # digit-wise 3 * (1, 0, 1, 3, 4, 1, 2) mod 10
        code, out, _ = run_cli(capsys, "string", "scale", "3", "1013412")
        assert code == 0 and out == "3039236\n"

    @pytest.mark.parametrize("text", ["²3", "١٢"])
    def test_non_ascii_digits_are_operation_errors(self, capsys, text):
        code, _, err = run_cli(capsys, "string", "add", text, "12")
        assert code == 1 and err.startswith(f"error: not a digit string: {text!r}")
        assert_one_error_line(err)

    def test_breed_requires_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("TOPOCODE_SEED", raising=False)
        code, _, err = run_cli(capsys, "string", "breed", "214", "1001", "68")
        assert code == 1 and "seed" in err.lower()

    def test_breed_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPOCODE_SEED", "3")
        code, out, _ = run_cli(capsys, "string", "breed", "214", "1001", "68")
        assert code == 0
        assert json.loads(out)["total_bytes"] == "54"

    @pytest.mark.parametrize("ring", ["modx", "mod"])
    def test_unknown_ring_is_operation_error(self, capsys, ring):
        code, _, err = run_cli(capsys, "string", "add", "1", "2", "--ring", ring)
        assert code == 1 and err.strip() == f"error: unknown digit ring {ring!r}"

    def test_breed_total_beyond_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "string", "breed", *"12345678", "--depth", "2", "--seed", "1")
        assert code == 0
        assert len(json.loads(out)["total_bytes"]) > limit
        assert sys.get_int_max_str_digits() == limit

    def test_breed_unrepresentable_depth_is_operation_error(self, capsys):
        code, _, err = run_cli(capsys, "string", "breed", *"1234567", "--depth", "3", "--seed", "1")
        assert code == 1 and "depth 3" in err
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("scale", "x", "123"), "error: scale factor must be an integer, got 'x'"),
            (("partitions", "abc"), "error: number to partition must be an integer, got 'abc'"),
        ],
        ids=["scale", "partitions"],
    )
    def test_non_integer_operand_names_it(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "string", *argv)
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert err.strip() == message

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("add", "123"), "error: string add needs 2 operands, got 1"),
            (("sub", "1"), "error: string sub needs 2 operands, got 1"),
            (("scale", "3"), "error: string scale needs 2 operands, got 1"),
            (("complement", "1", "2"), "error: string complement needs 1 operand, got 2"),
            (("reverse", "12", "34"), "error: string reverse needs 1 operand, got 2"),
            (("add", "1", "2", "3"), "error: string add needs 2 operands, got 3"),
            (("partitions", "5", "6"), "error: string partitions needs 1 operand, got 2"),
        ],
        ids=["add-1", "sub-1", "scale-1", "complement-2", "reverse-2", "add-3", "partitions-2"],
    )
    def test_wrong_operand_count_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "string", *argv)
        assert code == 2 and out == ""
        assert_one_error_line(err)
        assert err.strip() == message

    def test_partitions(self, capsys):
        code, out, _ = run_cli(capsys, "string", "partitions", "5", "--mode", "sum")
        assert code == 0
        assert [p["parts"] for p in json.loads(out)][0] == [4, 1]

    @pytest.mark.parametrize("limit", ["0", "-2"])
    def test_partitions_limit_below_one_is_operation_error(self, capsys, limit):
        code, out, err = run_cli(capsys, "string", "partitions", "6", "--limit", limit)
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert err.strip() == f"error: partition limit must be >= 1, got {limit}"

    def test_breed_reads_operands_under_the_ring(self, capsys):
        # under mod9 the digit 9 is the residue 0, as string reverse reads it
        code, out, _ = run_cli(capsys, "string", "breed", "19", "29", "--ring", "mod9", "--seed", "1")
        assert code == 0
        assert json.loads(out) == {"total_bytes": "8", "samples": ["1020", "2010"]}


class TestTables:
    def test_table2_file_output(self, capsys, tmp_path):
        target = tmp_path / "table2.tsv"
        code, _, _ = run_cli(capsys, "tables", "reproduce", "--which", "table2", "--out", str(target))
        assert code == 0
        assert target.read_text() == reproduce_table2().to_text()

    def test_table1_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "reproduce", "--which", "table1")
        assert code == 0
        assert out == reproduce_table1().to_text()

    def test_notes_follow_the_table_one_comment_line_each(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "reproduce", "--which", "table2", "--notes")
        table = reproduce_table2().to_text()
        assert code == 0 and out.startswith(table)
        assert out[len(table):] == (
            "# table2: residue 0 prints as 9 in every column except the two complement columns,"
            " matching the published layout.\n"
            "# table2: row 6 of the d-comp_rev column computes to 912219; the published table prints"
            " 921129 (digit transposition), inconsistent with its own identity d+d_rev = d-comp_rev.\n"
            "# table2: row 9 of the d-comp column computes to 962583; the published table prints"
            " 962853 (digit transposition), inconsistent with the identity d-comp = 2d (mod 9).\n"
        )


class TestGraphCommands:
    def test_split_complete(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "split-complete", "--m", "3")
        assert code == 0
        trees = json.loads(out)["trees"]
        assert len(trees) == 3

    def test_split_complete_m40(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "split-complete", "--m", "40")
        assert code == 0
        assert len(json.loads(out)["trees"]) == 40

    def test_split_complete_odd(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "split-complete", "--odd", "--m", "2")
        assert code == 0
        vertices = [1, 2, 3, 4, 5]
        assert json.loads(out) == {
            "star": {"n": 5, "vertices": vertices, "edges": [[3, 5], [4, 5]]},
            "trees": [
                {"n": 5, "vertices": vertices, "edges": [[1, 2], [1, 5], [2, 4], [3, 4]]},
                {"n": 5, "vertices": vertices, "edges": [[1, 3], [1, 4], [2, 3], [2, 5]]},
            ],
        }

    def test_cayley(self, capsys):
        for m in (6, 8, 30):
            code, out, _ = run_cli(capsys, "graph", "cayley", "--m", str(m))
            data = json.loads(out)
            assert code == 0 and data["closed_form"] == data["enumerated"] == m ** (m - 2)

    def test_bipartite_count_4x5(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "bipartite-count", "--m", "4", "--n", "5")
        assert code == 0 and json.loads(out) == {"closed_form": 32000, "enumerated": 32000}

    def test_cayley_m0_is_operation_error(self, capsys):
        code, _, err = run_cli(capsys, "graph", "cayley", "--m", "0")
        assert code == 1
        assert_one_error_line(err)

    def test_dot_without_graph_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "graph", "dot")
        assert code == 2
        assert_one_error_line(err)

    def test_dot(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "graph", "dot", "--graph", write_k2(tmp_path))
        assert code == 0 and out == 'graph G {\n  1 [label="1:1"];\n  2 [label="2:2"];\n  1 -- 2 [label="3"];\n}\n'

    def test_dot_with_boolean_n_is_operation_error(self, capsys, tmp_path):
        path = tmp_path / "n-bool.json"
        path.write_text(json.dumps({"n": True, "edges": []}))
        code, out, err = run_cli(capsys, "graph", "dot", "--graph", str(path))
        assert code == 1 and out == ""
        assert_one_error_line(err)


class TestLabelCommands:
    def graph_file(self, tmp_path):
        blob = {"vertices": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [3, 4]]}
        path = tmp_path / "p4.json"
        path.write_text(json.dumps(blob))
        return str(path)

    def test_search(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "label", "search", "--graph", self.graph_file(tmp_path),
            "--spec", "graceful;labeling",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert list(payload)[:3] == ["status", "nodes", "restarts"]
        assert payload["restarts"] >= 0

    def test_search_nan_timeout_is_operation_error(self, capsys, tmp_path):
        # argparse's float() reads "nan", which no deadline can compare against
        code, out, err = run_cli(
            capsys, "label", "search", "--graph", self.graph_file(tmp_path),
            "--spec", "graceful;labeling", "--timeout", "nan",
        )
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert "timeout" in err

    def test_verify(self, capsys, tmp_path):
        blob = {
            "vertices": [1, 2, 3],
            "edges": [[1, 2], [2, 3]],
            "vcolors": {"1": 0, "2": 2, "3": 1},
        }
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run_cli(capsys, "label", "verify", "--graph", str(path),
                               "--spec", "graceful;labeling")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    @pytest.mark.parametrize(
        "colors, where",
        [
            ({"vcolors": {"1": [1, 2], "2": [3, 4]}}, "vertex 1"),
            ({"vcolors": {"1": "a", "2": 3}}, "vertex 1"),
            ({"vcolors": {"1": 0, "2": 1.5}}, "vertex 2"),
            ({"vcolors": {"1": 0, "2": 1}, "ecolors": {"1,2": "x"}}, "edge 1,2"),
        ],
        ids=["vcolors-lists", "vcolor-string", "vcolor-float", "ecolor-string"],
    )
    def test_verify_non_integer_color_is_operation_error(self, capsys, tmp_path, colors, where):
        path = tmp_path / "colors.json"
        path.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]], **colors}))
        code, out, err = run_cli(capsys, "label", "verify", "--graph", str(path), "--spec", "graceful;labeling")
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert f"error: {where} has color" in err

    def test_verify_strongly_on_p2000(self, capsys, tmp_path):
        n = 2000
        colors = {v: (v - 1) // 2 if v % 2 else n - 1 - (v - 1) // 2 for v in range(1, n + 1)}
        blob = {"vertices": list(colors), "edges": [[v, v + 1] for v in range(1, n)], "vcolors": colors}
        path = tmp_path / "p2000.json"
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "label", "verify", "--graph", str(path),
                                 "--spec", "graceful;strongly;labeling")
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] is True

    @pytest.mark.parametrize("family", ["edge-magic", "felicitous-difference", "harmonious"])
    def test_search_strongly_outside_the_graceful_families_is_operation_error(self, capsys, tmp_path, family):
        path = tmp_path / "c6.json"
        path.write_text(json.dumps({"vertices": [1, 2, 3, 4, 5, 6], "edges": [[i, i % 6 + 1] for i in range(1, 7)]}))
        code, out, err = run_cli(capsys, "label", "search", "--graph", str(path), "--spec", f"{family};strongly;labeling")
        assert code == 1 and out == ""
        assert err == "error: strongly flag applies to graceful families only\n"

    @pytest.mark.parametrize("weights", ["1,2", "1,2,3,4"])
    def test_verify_abc_needs_three_weights(self, capsys, tmp_path, weights):
        code, out, err = run_cli(capsys, "label", "verify", "--graph", self.graph_file(tmp_path),
                                 "--spec", f"graceful;abc={weights}")
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert "three weights" in err

    @pytest.mark.parametrize("token", ["k=x", "abc=1,,2"])
    def test_verify_non_integer_spec_value_names_the_token(self, capsys, tmp_path, token):
        code, out, err = run_cli(capsys, "label", "verify", "--graph", self.graph_file(tmp_path),
                                 "--spec", f"graceful;{token}")
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert repr(token) in err


class TestTopcodeCommands:
    def test_string(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "topcode", "string", "--graph", write_k2(tmp_path))
        assert code == 0 and out.strip() == "132"

    def test_matrix(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "topcode", "matrix", "--graph", write_k2(tmp_path))
        assert code == 0 and out == '{"q": 1, "X": [1], "E": [3], "Y": [2]}\n'

    def test_calls_do_not_carry_options_over(self, capsys, tmp_path):
        graph, target = write_k2(tmp_path), tmp_path / "reversed.txt"
        code, out, _ = run_cli(capsys, "topcode", "string", "--graph", graph, "--perm-rank", "5", "--out", str(target))
        assert code == 0 and out == "" and target.read_text() == "231"
        code, out, _ = run_cli(capsys, "string", "add", "12", "34", "--out", str(tmp_path / "sum.txt"))
        assert code == 0 and out == ""
        code, out, _ = run_cli(capsys, "topcode", "string", "--graph", graph)
        assert code == 0 and out == "132\n" and target.read_text() == "231"

    def test_string_rank_beyond_int_digit_limit(self, capsys, tmp_path):
        # a 700-edge path read by the last rank, (2100)! - 1, i.e. reversed
        q = 700
        blob = {
            "vertices": list(range(q + 1)),
            "edges": [[v, v + 1] for v in range(q)],
            "vcolors": {str(v): v for v in range(q + 1)},
            "ecolors": {f"{v},{v + 1}": 10 * v + 7 for v in range(q)},
        }
        path = tmp_path / "p701.json"
        path.write_text(json.dumps(blob))
        rank = decimal(math.factorial(3 * q) - 1)
        assert len(rank) > sys.get_int_max_str_digits()
        cells = list(range(q)) + [10 * v + 7 for v in range(q)] + list(range(1, q + 1))
        code, out, _ = run_cli(capsys, "topcode", "string", "--graph", str(path), "--perm-rank", rank)
        assert code == 0
        assert out.strip() == "".join(str(c) for c in reversed(cells))

    def test_graph_without_edges_is_operation_error(self, capsys, tmp_path):
        path = tmp_path / "no-edges.json"
        path.write_text(json.dumps({"vertices": [1, 2]}))
        code, _, err = run_cli(capsys, "topcode", "matrix", "--graph", str(path))
        assert code == 1
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "blob",
        [
            {"vertices": [1, 2], "edges": [[1, 2]], "vcolors": [1, 2]},
            {"vertices": [1, 2], "edges": 5},
            {"vertices": [1, 2], "edges": [[1, 2, 3]]},
            {"vertices": [1, 2], "edges": [["a", 2]]},
            {"vertices": [1, 2], "edges": [[1, 2]], "ecolors": [1]},
            {"vertices": 5, "edges": [[1, 2]]},
            {"n": "x", "edges": [[1, 2]]},
            # JSON booleans are not vertex ids, even where they compare equal to 0 and 1
            {"vertices": [False, True, 2], "edges": [[0, 1], [1, 2]],
             "vcolors": {"0": 0, "1": 2, "2": 1}, "ecolors": {"0,1": 2, "1,2": 1}},
            {"vertices": [0, 1, 2], "edges": [[False, 1], [1, 2]],
             "vcolors": {"0": 0, "1": 2, "2": 1}, "ecolors": {"0,1": 2, "1,2": 1}},
        ],
        ids=["vcolors-list", "edges-int", "edge-triple", "edge-string-end", "ecolors-list", "vertices-int", "n-string",
             "vertex-bool", "edge-end-bool"],
    )
    def test_malformed_graph_file_is_operation_error(self, capsys, tmp_path, blob):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(blob))
        code, _, err = run_cli(capsys, "topcode", "matrix", "--graph", str(path))
        assert code == 1
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "colors, message",
        [
            ({"vcolors": {"a": 1}}, "error: graph file 'vcolors' key must be an integer, got 'a'"),
            ({"ecolors": {"1-2": 3}}, "error: graph file 'ecolors' key must be two integers 'u,v', got '1-2'"),
            ({"ecolors": {"1,2,3": 3}}, "error: graph file 'ecolors' key must be two integers 'u,v', got '1,2,3'"),
        ],
        ids=["vcolors-letter", "ecolors-dash", "ecolors-triple"],
    )
    def test_non_integer_color_key_names_it(self, capsys, tmp_path, colors, message):
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]], "vcolors": {"1": 1, "2": 2}} | colors))
        code, out, err = run_cli(capsys, "topcode", "matrix", "--graph", str(path))
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert err.strip() == message


class TestGroupCommands:
    def test_compound(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "group", "compound", "--graph", write_k2(tmp_path), "--m", "4")
        assert code == 0 and json.loads(out)["order"] == 4

    @pytest.mark.parametrize("missing, named", [("ecolors", "edge colors"), ("vcolors", "vertex colors")])
    def test_compound_without_colors_is_operation_error(self, capsys, tmp_path, missing, named):
        blob = {"vertices": [1, 2], "edges": [[1, 2]], "vcolors": {"1": 1, "2": 2}, "ecolors": {"1,2": 3}}
        del blob[missing]
        path = tmp_path / f"no-{missing}.json"
        path.write_text(json.dumps(blob))
        code, _, err = run_cli(capsys, "group", "compound", "--graph", str(path), "--m", "4")
        assert code == 1 and named in err
        assert_one_error_line(err)

    @pytest.mark.parametrize("colors", [{"vcolors": {"1": True, "2": 2}}, {"ecolors": {"1,2": False}}],
                             ids=["vertex", "edge"])
    def test_compound_with_boolean_colors_is_operation_error(self, capsys, tmp_path, colors):
        blob = {"vertices": [1, 2], "edges": [[1, 2]], "vcolors": {"1": 1, "2": 2}, "ecolors": {"1,2": 3}} | colors
        path = tmp_path / "bool-colors.json"
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "group", "compound", "--graph", str(path), "--m", "4")
        assert code == 1 and out == "" and "numeric colorings" in err
        assert_one_error_line(err)


class TestProtoCommands:
    def test_run_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "proto", "run", "--id", "self-cert-1", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "proto", "run", "--id", "self-cert-1", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_replay_diff(self, capsys, tmp_path):
        target = tmp_path / "t.jsonl"
        code, _, _ = run_cli(capsys, "proto", "run", "--id", "tkpdra", "--seed", "5",
                             "--out", str(target))
        assert code == 0
        code, out, _ = run_cli(capsys, "proto", "replay", "--id", "tkpdra", "--seed", "5",
                               "--in", str(target))
        assert code == 0 and "match" in out
        code, out, _ = run_cli(capsys, "proto", "replay", "--id", "tkpdra", "--seed", "6",
                               "--in", str(target))
        assert code == 1

    def test_run_plaintext(self, capsys):
        code, out, _ = run_cli(capsys, "proto", "run", "--id", "self-cert-1", "--seed", "7", "--plaintext", "hi")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == "e3481f06ec61cec98575d04bc322d7061b64e2cbc7eb0513b7dde04ceb103e1f"
        _, default, _ = run_cli(capsys, "proto", "run", "--id", "self-cert-1", "--seed", "7")
        assert out != default

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "proto", "list")
        assert code == 0 and "tkpdra" in out

    def test_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(Path(topocode.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "topocode", "proto", "list"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0 and "tkpdra" in done.stdout.split()

    @pytest.mark.parametrize("action", ["run", "replay"])
    def test_missing_id_is_usage_error(self, capsys, action):
        code, _, err = run_cli(capsys, "proto", action, "--seed", "7")
        assert code == 2
        assert_one_error_line(err)

    def test_non_integer_env_seed_is_operation_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPOCODE_SEED", "abc")
        code, _, err = run_cli(capsys, "proto", "run", "--id", "tkpdra")
        assert code == 1 and err.strip() == "error: TOPOCODE_SEED must be an integer, got 'abc'"

    def test_replay_missing_in_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "proto", "replay", "--id", "tkpdra", "--seed", "5")
        assert code == 2
        assert_one_error_line(err)

    def test_replay_reads_missing_in_before_running(self, capsys, monkeypatch, tmp_path):
        from topocode import protocols

        def refuse(*args, **kwargs):
            raise AssertionError("a protocol ran before --in was read")

        # every protocol run creates its context first
        monkeypatch.setattr(protocols.ProtocolContext, "create", staticmethod(refuse))
        code, _, err = run_cli(capsys, "proto", "replay", "--id", "tkpdra", "--seed", "5",
                               "--in", str(tmp_path / "missing.jsonl"))
        assert code == 1
        assert_one_error_line(err)

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["string"])
        assert exc.value.code == 2

    def test_operation_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "string", "add", "12", "345")
        assert code == 1 and "length" in err
