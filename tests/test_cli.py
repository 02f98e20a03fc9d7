import json
import time

import pytest

from symdual.cli import EXIT_CAP, EXIT_OK, EXIT_SCHEMA, main

TRIANGLE = json.dumps({
    "c": 3,
    "generators": [{"counts": [
        {"support": [1, 2], "count": 1},
        {"support": [1, 3], "count": 1},
        {"support": [2, 3], "count": 1},
    ]}],
})

TWO_ORBIT = json.dumps({
    "c": 3,
    "generators": [
        {"matrix": [[1, 1, 1], [1, 1, 0], [0, 0, 1]]},
        {"matrix": [[1, 0, 0], [1, 1, 1], [0, 1, 1]]},
    ],
})

EDGE = json.dumps({"c": 2, "generators": [{"counts": {"[1, 2]": 1}}]})

CONE = json.dumps({
    "k": 3,
    "lower": [
        {"support": [1], "bound": 1},
        {"support": [2], "bound": 1},
        {"support": [3], "bound": 1},
        {"support": [1, 2], "bound": 3},
    ],
})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "symdual/1"
    return doc


class TestDualGens:
    def test_two_orbit_n4(self, capsys):
        doc = run_json(capsys, "dual-gens", "--json", TWO_ORBIT, "--n", "4")
        assert doc["count"] == 14
        assert len(doc["orbits"]) == 14

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "dual-gens", "--json", TRIANGLE, "--n", "5")
        _, second = run(capsys, "dual-gens", "--json", TRIANGLE, "--n", "5")
        assert first == second


class TestCountAndFit:
    def test_count_then_fit_closed_form(self, capsys):
        doc = run_json(capsys, "count", "--json", TRIANGLE, "--n", "4..9")
        assert [s["count"] for s in doc["samples"]] == [15, 25, 36, 48, 61, 75]
        fit = run_json(capsys, "fit", "--json", TRIANGLE, "--n", "4..9")
        assert fit["fit"]["coeffs"] == ["-15", "11/2", "1/2"]
        assert fit["fit"]["stable_from"] == 4

    def test_edge_count(self, capsys):
        doc = run_json(capsys, "count", "--json", EDGE, "--n", "2..6")
        assert [s["count"] for s in doc["samples"]] == [3, 4, 5, 6, 7]


class TestMinDegree:
    def test_single_width(self, capsys):
        doc = run_json(capsys, "min-degree", "--json", EDGE, "--n", "5")
        assert doc["degree"] == 5 and doc["count"] == 6

    def test_series(self, capsys):
        doc = run_json(capsys, "min-degree", "--json", EDGE, "--n", "2..7")
        assert doc["slope"] == 1 and doc["intercept"] == 0

    def test_series_computes_each_width_once(self, capsys, monkeypatch):
        from symdual import dual_core

        widths = []
        original = dual_core.min_gens

        def counted(system, n):
            widths.append(n)
            return original(system, n)

        monkeypatch.setattr(dual_core, "min_gens", counted)
        doc = run_json(capsys, "min-degree", "--json", EDGE, "--n", "2..7")
        assert widths == [2, 3, 4, 5, 6, 7]
        assert [s["degree"] for s in doc["series"]] == [2, 3, 4, 5, 6, 7]


class TestFacesAndFacets:
    def test_faces(self, capsys):
        doc = run_json(capsys, "faces", "--json", EDGE, "--j", "1", "--n", "3..5")
        assert [s["count"] for s in doc["samples"]] == [3, 3, 3]

    def test_facets(self, capsys):
        doc = run_json(capsys, "facets", "--json", EDGE, "--n", "4")
        assert doc["histogram"] == {"3": 5}


class TestCone:
    def test_worked_example(self, capsys):
        doc = run_json(capsys, "cone", "--json", CONE, "--n", "0..6")
        assert not doc["empty"]
        counts = {s["n"]: s["count"] for s in doc["slices"]}
        assert counts[5] == 5 and counts[3] == 0


class TestMatch:
    def test_feasible(self, capsys):
        doc = run_json(
            capsys,
            "match",
            "--json",
            json.dumps({"c": 2, "f": [[1], [2]], "g": [[1], [2]]}),
        )
        assert doc["feasible"] and doc["permutation"] == [2, 1]

    def test_infeasible_has_certificate(self, capsys):
        doc = run_json(
            capsys,
            "match",
            "--json",
            json.dumps({"c": 1, "f": [[1]], "g": [[1]]}),
        )
        assert not doc["feasible"]
        assert doc["violating_ideal"] == [[1]]


class TestVerify:
    def test_two_orbit(self, capsys):
        doc = run_json(capsys, "verify", "--json", TWO_ORBIT, "--n", "3..4")
        assert doc["ok"]
        assert doc["checks"]["min_gens_oracle_equal"] == 2

    def test_disagreement_exits_4(self, capsys, monkeypatch):
        from symdual import cli as cli_module

        monkeypatch.setattr(
            cli_module.oracle, "brute_min_gens_dual", lambda system, n: frozenset()
        )
        code, _ = run(capsys, "verify", "--json", TWO_ORBIT, "--n", "3")
        assert code == 4


class TestErrors:
    def test_bad_json_is_schema_error(self, capsys):
        code, _ = run(capsys, "count", "--json", "{not json", "--n", "3")
        assert code == EXIT_SCHEMA

    def test_missing_n(self, capsys):
        code, _ = run(capsys, "count", "--json", EDGE)
        assert code == EXIT_SCHEMA

    def test_cap_exceeded(self, capsys):
        big = json.dumps({
            "c": 5,
            "generators": [{"counts": [{"support": [1], "count": 1}]}],
        })
        code, _ = run(capsys, "dual-gens", "--json", big, "--n", "3")
        assert code == EXIT_CAP

    def test_fit_error_is_schema_error(self, capsys):
        code, _ = run(capsys, "fit", "--json", EDGE, "--n", "2..3")
        assert code == EXIT_SCHEMA

    def test_width_too_small(self, capsys):
        code, _ = run(capsys, "dual-gens", "--json", TWO_ORBIT, "--n", "2")
        assert code == EXIT_SCHEMA


ONE_GENERATOR_C5 = json.dumps({
    "c": 5, "generators": [{"counts": [{"support": [1], "count": 1}]}],
})


@pytest.mark.parametrize("command", ["dual-gens", "count", "facets", "min-degree", "verify"])
@pytest.mark.parametrize("doc,n,code,message", [
    (ONE_GENERATOR_C5, "3", EXIT_CAP, "ideal-tuple enumeration capped at c<=4, got c=5"),
    (TRIANGLE, "2", EXIT_SCHEMA, "width n=2 below the system's stability width 3"),
])
def test_one_generator_guards(capsys, command, doc, n, code, message):
    assert main([command, "--json", doc, "--n", n]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["dual-gens", "facets"])
def test_single_width_command_rejects_a_range(capsys, command):
    assert main([command, "--json", TRIANGLE, "--n", "3..5"]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == f"error: {command} takes a single width --n, got '3..5'\n"
    assert captured.out == ""


def _count_entry(count):
    return {"c": 2, "generators": [{"counts": [{"support": [1], "count": count}]}]}


def _cone(**changes):
    return {"k": 2, "lower": [{"support": [1], "bound": 0}, {"support": [2], "bound": 0}],
            **changes}


MALFORMED = [
    ("dual-gens", {"c": "3", "generators": [{"counts": [{"support": [1], "count": 1}]}]}),
    ("dual-gens", _count_entry("x")),
    ("dual-gens", _count_entry(True)),
    ("dual-gens", {"c": 2, "generators": "abc"}),
    ("dual-gens", {"c": 2, "generators": [{"matrix": 5}]}),
    ("dual-gens", {"c": 1, "generators": [{"matrix": [[True]]}]}),
    ("cone", _cone(lower=[{"support": [1], "bound": "a"}, {"support": [2], "bound": 0}])),
    ("cone", _cone(upper=5)),
    ("cone", _cone(lower=[{"support": 1, "bound": 0}])),
    ("cone", {"k": "2", "lower": []}),
    ("match", {"c": "2", "f": [[1]], "g": [[2]]}),
    ("match", {"c": True, "f": [[1]], "g": [[1]]}),
    ("match", {"c": 2, "f": 5, "g": [[1]]}),
    ("match", {"c": 2, "f": [[True]], "g": [[2]]}),
    ("dual-gens", {"c": 0, "generators": [{"counts": []}]}),
    ("cone", {"k": 0, "lower": []}),
    ("match", {"c": 0, "f": [], "g": []}),
    ("match", {"c": 0, "f": [[1]], "g": [[1]]}),
]


@pytest.mark.parametrize("command,doc", MALFORMED)
def test_malformed_document_is_a_one_line_schema_error(capsys, command, doc):
    code = main([command, "--json", json.dumps(doc), "--n", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_match_checks_c_before_the_subsets(capsys):
    doc = json.dumps({"c": 0, "f": [[1]], "g": [[1]]})
    assert main(["match", "--json", doc]) == EXIT_SCHEMA
    assert capsys.readouterr().err == "error: ambient size c=0 must be an integer of at least 1\n"


@pytest.mark.parametrize("c,j", [(10, 1), (16, 0)])
def test_faces_at_large_c(capsys, c, j):
    # The type-vector walk visits up to 2^c - 1 supports.
    doc = json.dumps({"c": c, "generators": [{"counts": [{"support": [1, 2], "count": 1}]}]})
    code = main(["faces", "--json", doc, "--j", str(j), "--n", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert json.loads(captured.out)["samples"][0]["count"] > 0


@pytest.mark.parametrize("option,raw", [
    ("--input", b'{"c": 2, "generators": \xff}'),
    ("--json", "[" * 100_000 + "]" * 100_000),
    ("--json", '{"c": ' + "7" * 5000 + "}"),
], ids=["not-utf8", "deep-nesting", "long-integer"])
def test_unreadable_document_is_a_one_line_schema_error(capsys, tmp_path, option, raw):
    if option == "--input":
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        raw = str(path)
    code = main(["count", option, raw, "--n", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("doc", [
    _cone(upper=[{"support": [1], "bound": 10**8}, {"support": [2], "bound": 10**8}]),
    _cone(lower=[{"support": [1], "bound": 0}, {"support": [2], "bound": 0},
                 {"support": [1, 2], "bound": 10**8}]),
], ids=["witness-box", "split-levels"])
def test_cone_work_is_capped(capsys, doc):
    start = time.perf_counter()
    code = main(["cone", "--json", json.dumps(doc)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 1.0


class TestTableFormat:
    def test_count_table(self, capsys):
        code, out = run(
            capsys, "count", "--json", EDGE, "--n", "2..4", "--format", "table"
        )
        assert code == EXIT_OK
        assert "n" in out and "count" in out and "5" in out
