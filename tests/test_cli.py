import json

import pytest

from cset_transport.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin(capsys):
    code, out, _ = run_cli(capsys, "validate", "builtin:c3")
    assert code == 0
    assert out.strip() == "ok"


def test_validate_file(tmp_path, capsys):
    f = tmp_path / "x.json"
    f.write_text(
        json.dumps(
            {
                "theory": "Graph",
                "sets": {"V": 3, "E": 3},
                "maps": {"src": [0, 1, 2], "tgt": [1, 2, 0]},
            }
        )
    )
    code, out, _ = run_cli(capsys, "validate", str(f))
    assert code == 0 and out.strip() == "ok"


def test_validate_invalid_instance(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(
        json.dumps(
            {"theory": "Graph", "sets": {"V": 1, "E": 1}, "maps": {"src": [4], "tgt": [0]}}
        )
    )
    code, out, err = run_cli(capsys, "validate", str(f))
    assert code == 1
    assert "error" in err


def test_validate_non_object_instance(tmp_path, capsys):
    # a JSON list at the top level is refused with one error line
    f = tmp_path / "list.json"
    f.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "validate", str(f))
    assert (code, out) == (1, "")
    assert err == "error: instance must be a JSON object, got [1, 2]\n"


@pytest.mark.parametrize(
    "field, entry, message",
    [
        # these used to crash with a KeyError or AttributeError traceback
        ("metrics", {"kind": "explicit"}, "explicit metric on 'V' lacks 'matrix'"),
        ("measures", {"kind": "explicit"}, "explicit measure on 'V' lacks 'weights'"),
        ("metrics", "discrete", "metric on 'V' must be a JSON object, got 'discrete'"),
        ("measures", "counting", "measure on 'V' must be a JSON object, got 'counting'"),
        ("metrics", {"kind": "discrete"}, "sets (for the metric on 'W') lacks 'W'"),
        ("measures", {"kind": "counting"}, "sets (for the measure on 'W') lacks 'W'"),
    ],
)
def test_validate_malformed_metric_or_measure(tmp_path, capsys, field, entry, message):
    f = tmp_path / "x.json"
    data = {"theory": "Graph", "sets": {"V": 2, "E": 1}, "maps": {"src": [0], "tgt": [1]}}
    data[field] = {message.split("'")[1]: entry}  # on the object the message names
    f.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(f))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        # these used to crash with a TypeError or AttributeError traceback
        ("maps", [0], "maps must be a JSON object, got [0]"),
        ("sets", [2, 1], "sets must be a JSON object, got [2, 1]"),
        ("metrics", [1], "metrics must be a JSON object, got [1]"),
        ("measures", "x", "measures must be a JSON object, got 'x'"),
        ("fixed", 5, "fixed must be a list of object names, got 5"),
        ("theory", {"dsl": 5}, "a theory's 'dsl' must be a string, got 5"),
        # this one was read letter by letter as the set {V, E}
        ("fixed", "VE", "fixed must be a list of object names, got 'VE'"),
        # these were accepted silently
        ("sets", {"V": 2, "E": 1, "W": 3}, "set 'W' names no object of theory Graph"),
        ("maps", {"src": [0], "tgt": [1], "foo": [0]}, "map 'foo' names no generator of theory Graph"),
        # this one passed numpy's message about an inhomogeneous shape through
        ("metrics", {"V": {"kind": "explicit", "matrix": [[0, 1], [1, 0, 2]]}},
         "matrix rows must have one length, got lengths [2, 3]"),
    ],
)
def test_validate_fields_of_the_wrong_json_type(tmp_path, capsys, field, value, message):
    f = tmp_path / "x.json"
    data = {"theory": "Graph", "sets": {"V": 2, "E": 1}, "maps": {"src": [0], "tgt": [1]}}
    data[field] = value
    f.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(f))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_ragged_cost_matrix_is_named(tmp_path, capsys):
    f = tmp_path / "ot.json"
    f.write_text(json.dumps({"mu": [1, 1], "nu": [1, 1], "cost": [[0, 1], [1]]}))
    code, out, err = run_cli(capsys, "ot", str(f))
    assert (code, out) == (1, "")
    assert err == "error: matrix rows must have one length, got lengths [1, 2]\n"


@pytest.mark.parametrize("nu", [[], [0.0, 0.0]])
def test_ot_accepts_the_empty_problem(tmp_path, capsys, nu):
    # JSON [] parses to shape (0,): with mu empty it is the 0 x len(nu) cost
    f = tmp_path / "ot.json"
    f.write_text(json.dumps({"mu": [], "nu": nu, "cost": []}))
    code, out, err = run_cli(capsys, "--format", "json", "ot", str(f))
    assert (code, err) == (0, "")
    assert (json.loads(out)["cost"], json.loads(out)["coupling"]) == (0.0, [])


def test_set_sizes_past_memory_give_one_error_line(tmp_path, capsys):
    # the size fits in 64 bits, but no counting measure of it fits in
    # memory; this used to print numpy's MemoryError traceback
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({
        "theory": "Graph", "sets": {"V": 10**18, "E": 0}, "maps": {"src": [], "tgt": []},
        "measures": {"V": {"kind": "counting"}, "E": {"kind": "counting"}},
    }))
    code, out, err = run_cli(capsys, "validate", str(f))
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_missing_file_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "validate", "nope.json")
    assert code == 2


def test_hom_found(capsys):
    code, out, _ = run_cli(capsys, "hom", "builtin:fig5x", "builtin:fig5y")
    assert code == 0
    assert out.splitlines()[0] == "found"


def test_markov_feasible_infeasible_result(capsys):
    code, out, _ = run_cli(capsys, "markov-feasible", "builtin:loop", "builtin:c3undirected")
    assert code == 0
    assert out.strip() == "infeasible"


def test_markov_feasible_certificate(capsys):
    code, out, _ = run_cli(capsys, "markov-feasible", "builtin:loop", "builtin:fig7y")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "feasible"
    cert = json.loads(lines[1])
    assert set(cert) == {"E", "V"}


def test_hausdorff_overflowing_power_is_inf(tmp_path, capsys):
    # a loop into a single edge whose ends are 1e200 apart: every map has a
    # defect of 1e200, whose square is past the float range
    data = {
        "a": ({"V": 1, "E": 1}, [0], [0], [[0]]),
        "b": ({"V": 2, "E": 1}, [0], [1], [[0, 1e200], [1e200, 0]]),
    }
    for name, (sets, src, tgt, matrix) in data.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "theory": "Graph",
            "sets": sets,
            "maps": {"src": src, "tgt": tgt},
            "metrics": {"V": {"kind": "explicit", "matrix": matrix}, "E": {"kind": "discrete"}},
            "measures": {"V": {"kind": "counting"}, "E": {"kind": "counting"}},
        }))
    code, out, _ = run_cli(
        capsys, "hausdorff", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        "--p", "2", "--class", "all",
    )
    assert code == 0
    assert out.splitlines()[0] == "inf"


def test_hausdorff_weak_pair(capsys):
    code, out, _ = run_cli(
        capsys, "hausdorff", "builtin:fig9x", "builtin:fig9y", "--p", "1", "--class", "mm"
    )
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_hausdorff_prints_plain_float(capsys):
    code, out, _ = run_cli(capsys, "hausdorff", "builtin:fig9x", "builtin:fig9y", "--p", "2")
    assert code == 0
    assert out.splitlines()[0] == "1.4142135623730951"


def test_hausdorff_node_guard(capsys):
    code, out, err = run_cli(capsys, "hausdorff", "builtin:fig9x", "builtin:fig9y", "--guard", "5")
    assert code == 1
    assert out == ""
    assert "--force" in err
    code, out, _ = run_cli(
        capsys, "hausdorff", "builtin:fig9x", "builtin:fig9y", "--guard", "5", "--force"
    )
    assert code == 0
    assert out.strip() == "2"


def test_hausdorff_rejects_nan_order(capsys):
    code, out, err = run_cli(capsys, "hausdorff", "builtin:fig9x", "builtin:fig9y", "--p", "nan")
    assert code == 1
    assert out == ""
    assert "order p" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hausdorff", "builtin:fig9x", "builtin:fig9y"],
        ["wasserstein", "builtin:c2", "builtin:c4"],
        ["gap", "builtin:fig9x", "builtin:fig9y"],
        ["export-lp", "builtin:c2", "builtin:c3", "--problem", "wasserstein"],
        ["wk", "problem.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_number_order_is_a_usage_error(capsys, argv):
    # it used to exit 1 with float()'s message; an out-of-range number such
    # as nan still exits 1 (test_hausdorff_rejects_nan_order)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--p", "abc"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "argument --p" in out.err


def test_hausdorff_infinite(capsys):
    code, out, _ = run_cli(
        capsys, "hausdorff", "builtin:c4discrete", "builtin:c2", "--class", "mm"
    )
    assert code == 0
    assert out.strip() == "inf"


def test_wasserstein_cycles(capsys):
    code, out, _ = run_cli(capsys, "wasserstein", "builtin:c2", "builtin:c4", "--p", "1")
    assert code == 0
    assert out.splitlines()[0] == "0"
    code, out, _ = run_cli(capsys, "wasserstein", "builtin:c4", "builtin:c2", "--p", "1")
    assert code == 0
    assert out.strip() == "inf"


def test_gap(capsys):
    code, out, _ = run_cli(capsys, "gap", "builtin:fig9x", "builtin:fig9y", "--p", "1")
    assert code == 0
    assert out.splitlines() == ["wasserstein: 0", "hausdorff: 2"]


def test_ot_and_wk(tmp_path, capsys):
    ot = tmp_path / "ot.json"
    ot.write_text(
        json.dumps({"mu": [0.7, 0.3], "nu": [0.4, 0.6], "cost": [[0, 1], [1, 0]]})
    )
    code, out, _ = run_cli(capsys, "ot", str(ot))
    assert code == 0
    assert out.splitlines()[0] == "0.3"

    wk = tmp_path / "wk.json"
    wk.write_text(
        json.dumps(
            {
                "m": {"rows": 1, "cols": 2, "p": [[1.0, 0.0]]},
                "n": {"rows": 1, "cols": 2, "p": [[0.0, 1.0]]},
                "mu": [1.0],
                "d": [[0, 2], [2, 0]],
                "p": 1,
            }
        )
    )
    code, out, _ = run_cli(capsys, "wk", str(wk))
    assert code == 0
    assert out.strip() == "2"


def test_wk_explicit_p_wins_over_file(tmp_path, capsys):
    problem = {
        "m": {"rows": 1, "cols": 2, "p": [[0.5, 0.5]]},
        "n": {"rows": 1, "cols": 2, "p": [[0.0, 1.0]]},
        "mu": [1.0],
        "d": [[0, 2], [2, 0]],
        "p": 1,
    }
    wk = tmp_path / "wk.json"
    wk.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "wk", str(wk))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "wk", str(wk), "--p", "2")
    assert code == 0 and out.strip() == "1.4142135623730951"
    del problem["p"]
    wk.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "wk", str(wk))
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("p", ["2.5", "1", [2], None, True, {"p": 2}])
def test_wk_refuses_a_file_p_that_is_no_number(tmp_path, capsys, p):
    # the file's p used to be read through float(str(...)): "2.5" passed as
    # 2.5, and [2] or null failed with a message that did not name p
    problem = {
        "m": {"rows": 1, "cols": 2, "p": [[0.5, 0.5]]},
        "n": {"rows": 1, "cols": 2, "p": [[0.0, 1.0]]},
        "mu": [1.0],
        "d": [[0, 2], [2, 0]],
        "p": p,
    }
    wk = tmp_path / "wk.json"
    wk.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "wk", str(wk))
    assert code == 1 and out == ""
    assert err.startswith("error: p must be a number") and err.count("\n") == 1
    # an explicit --p does not read the file's
    code, out, _ = run_cli(capsys, "wk", str(wk), "--p", "1")
    assert code == 0 and out.strip() == "1"


def test_wk_file_p_may_be_a_number_or_inf(tmp_path, capsys):
    problem = {
        "m": {"rows": 1, "cols": 2, "p": [[0.5, 0.5]]},
        "n": {"rows": 1, "cols": 2, "p": [[0.0, 1.0]]},
        "mu": [1.0],
        "d": [[0, 2], [2, 0]],
    }
    wk = tmp_path / "wk.json"
    for p, want in ((2, "1.4142135623730951"), (2.0, "1.4142135623730951"), (1.5, None)):
        wk.write_text(json.dumps(dict(problem, p=p)))
        code, out, _ = run_cli(capsys, "wk", str(wk))
        assert code == 0 and (want is None or out.strip() == want)
    # "inf" is read as a number, then refused as an order: W_inf is no LP
    wk.write_text(json.dumps(dict(problem, p="inf")))
    code, out, err = run_cli(capsys, "wk", str(wk))
    assert code == 1 and out == "" and "order p must be finite" in err


def test_wk_rejects_a_metric_breaking_the_triangle_inequality(tmp_path, capsys):
    wk = tmp_path / "wk.json"
    wk.write_text(json.dumps({
        "m": {"rows": 1, "cols": 3, "p": [[1.0, 0.0, 0.0]]},
        "n": {"rows": 1, "cols": 3, "p": [[0.0, 0.0, 1.0]]},
        "mu": [1.0],
        "d": [[0, 1, 9], [1, 0, 1], [9, 1, 0]],
    }))
    code, _, err = run_cli(capsys, "wk", str(wk))
    assert code == 1
    assert "triangle" in err


def test_export_lp_feasibility(capsys):
    code, out, _ = run_cli(
        capsys, "export-lp", "builtin:loop", "builtin:fig7y", "--problem", "feasibility"
    )
    assert code == 0
    assert out.startswith("MINIMIZE")
    assert out.rstrip().endswith("END")
    from cset_transport.lp import parse_lp

    parse_lp(out)


def test_export_lp_wasserstein(capsys):
    code, out, _ = run_cli(
        capsys, "export-lp", "builtin:c2", "builtin:c3", "--problem", "wasserstein", "--p", "1"
    )
    assert code == 0
    assert "SUBJECT TO" in out


def test_json_format_schema(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "wasserstein", "builtin:c2", "builtin:c3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "cset-transport/1"
    assert doc["command"] == "wasserstein"
    assert doc["distance"] == 0


def test_json_format_infinite(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "wasserstein", "builtin:c4", "builtin:c2"
    )
    doc = json.loads(out)
    assert doc["distance"] == "inf"


def test_byte_identical_reruns(capsys):
    a = run_cli(capsys, "--format", "json", "hausdorff", "builtin:fig9x", "builtin:fig9y")
    b = run_cli(capsys, "--format", "json", "hausdorff", "builtin:fig9x", "builtin:fig9y")
    assert a == b


def test_builtins_round_trip_through_json():
    """Explicit metric matrices, "inf" entries included, and measures survive
    instance_to_json -> JSON text -> instance_from_json exactly."""
    from cset_transport.cset import instance_from_json, instance_to_json
    from cset_transport.gallery import BUILTIN_INSTANCE_NAMES, builtin_instance
    import numpy as np

    for name in BUILTIN_INSTANCE_NAMES:
        built = builtin_instance(name)
        loaded = instance_from_json(json.loads(json.dumps(instance_to_json(built))))
        assert loaded.theory == built.theory, name
        assert loaded.sets == built.sets, name
        assert set(loaded.maps) == set(built.maps), name
        for g in built.maps:
            assert np.array_equal(loaded.maps[g], built.maps[g]), name
        assert set(loaded.metrics) == set(built.metrics), name
        for ob in built.metrics:
            assert np.array_equal(loaded.metric(ob).d, built.metric(ob).d), name
        assert set(loaded.measures) == set(built.measures), name
        for ob in built.measures:
            assert np.array_equal(loaded.measure(ob).w, built.measure(ob).w), name
        assert loaded.fixed == built.fixed, name


@pytest.mark.parametrize("bad", ["1", True])
def test_ot_and_wk_reject_non_number_matrix_entries(tmp_path, capsys, bad):
    # a string or boolean cost or distance used to be converted by float()
    ot = tmp_path / "ot.json"
    ot.write_text(json.dumps({"mu": [0.7, 0.3], "nu": [0.4, 0.6], "cost": [[0, bad], [1, 0]]}))
    code, out, err = run_cli(capsys, "ot", str(ot))
    assert code == 1 and out == "" and "matrix rows must be numbers" in err

    wk = tmp_path / "wk.json"
    wk.write_text(
        json.dumps(
            {
                "m": {"rows": 1, "cols": 2, "p": [[1.0, 0.0]]},
                "n": {"rows": 1, "cols": 2, "p": [[0.0, 1.0]]},
                "mu": [1.0],
                "d": [[0, bad], ["inf", 0]],
                "p": 1,
            }
        )
    )
    code, out, err = run_cli(capsys, "wk", str(wk))
    assert code == 1 and out == "" and "matrix rows must be numbers" in err


def _ot_problem():
    return {"mu": [0.7, 0.3], "nu": [0.4, 0.6], "cost": [[0, 1], [1, 0]]}


def _wk_problem():
    return {
        "m": {"rows": 1, "cols": 2, "p": [[1.0, 0.0]]},
        "n": {"rows": 1, "cols": 2, "p": [[0.0, 1.0]]},
        "mu": [1.0],
        "d": [[0, 2], [2, 0]],
        "p": 1,
    }


def _set(path, value):
    """A change of a problem: the entry at ``path`` becomes ``value``, or
    is removed if ``value`` is None."""
    def apply(problem):
        target = problem
        for key in path[:-1]:
            target = target[key]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return problem
    return apply


@pytest.mark.parametrize(
    "command, problem, change, message",
    [
        ("ot", _ot_problem, _set(["mu"], ["0.7", 0.3]), "mu must be numbers"),
        ("ot", _ot_problem, _set(["nu"], [0.4, True]), "nu must be numbers"),
        ("wk", _wk_problem, _set(["mu"], [True]), "mu must be numbers"),
        ("wk", _wk_problem, _set(["m", "rows"], "1"), "kernel rows and cols must be integers"),
        ("wk", _wk_problem, _set(["n", "cols"], 2.9), "kernel rows and cols must be integers"),
        ("wk", _wk_problem, _set(["m", "p"], [["1", 0.0]]), "matrix rows must be numbers"),
        ("wk", _wk_problem, _set(["n", "p"], [[0.0, True]]), "matrix rows must be numbers"),
        ("wk", _wk_problem, _set(["n", "p"], "[[0, 1]]"), "a matrix must be a list of rows"),
        # a problem or kernel that is not a JSON object, or lacks a key,
        # used to crash with a KeyError or TypeError traceback
        ("ot", _ot_problem, lambda problem: [problem], "problem must be a JSON object"),
        ("ot", _ot_problem, _set(["nu"], None), "problem lacks 'nu'"),
        ("ot", _ot_problem, _set(["cost"], None), "problem lacks 'cost'"),
        ("wk", _wk_problem, lambda problem: 1, "problem must be a JSON object"),
        ("wk", _wk_problem, _set(["m"], None), "problem lacks 'm'"),
        ("wk", _wk_problem, _set(["d"], None), "problem lacks 'd'"),
        ("wk", _wk_problem, _set(["n"], [1, 2]), "kernel must be a JSON object"),
        ("wk", _wk_problem, _set(["m", "rows"], None), "kernel lacks 'rows'"),
        ("wk", _wk_problem, _set(["n", "cols"], None), "kernel lacks 'cols'"),
        ("wk", _wk_problem, _set(["m", "p"], None), "kernel lacks 'p'"),
    ],
)
def test_ot_and_wk_reject_non_number_fields(tmp_path, capsys, command, problem, change, message):
    # each of these used to be converted ("1" to 1.0, true to 1.0, 2.9 to 2)
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(change(problem())))
    code, out, err = run_cli(capsys, command, str(f))
    assert code == 1 and out == "" and message in err


def _validate_problem():
    return {"theory": "Graph", "sets": {"V": 2, "E": 1}, "maps": {"src": [0], "tgt": [1]}}


@pytest.mark.parametrize(
    "command, problem, change, message",
    [
        ("ot", _ot_problem, _set(["cost", 0, 1], 10**400), "matrix rows must lie within the float range"),
        ("ot", _ot_problem, _set(["mu", 1], 10**400), "mu must lie within the float range"),
        ("wk", _wk_problem, _set(["p"], 10**400), "p must lie within the float range"),
        ("validate", _validate_problem,
         _set(["measures"], {"V": {"kind": "explicit", "weights": [1, 10**400]}}),
         "measure weights on 'V' must lie within the float range"),
        ("validate", _validate_problem, _set(["maps", "src", 0], 10**30),
         "map 'src' must fit in 64 bits"),
    ],
)
def test_integers_past_the_float_or_int64_range_are_named(
    tmp_path, capsys, command, problem, change, message
):
    # each of these used to print an OverflowError traceback
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(change(problem())))
    code, out, err = run_cli(capsys, command, str(f))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_print_what_each_prints_alone(capsys):
    json_args = ["--format", "json", "wasserstein", "builtin:c3", "builtin:c4"]
    text_args = ["-v", "wasserstein", "builtin:c3", "builtin:c4"]
    alone = []
    for args in (json_args, text_args):
        build_parser.cache_clear()  # a parser of its own
        alone.append(run_cli(capsys, *args))
    # both orders, back to back, on one parser
    assert [run_cli(capsys, *json_args), run_cli(capsys, *text_args)] == alone
    assert [run_cli(capsys, *text_args), run_cli(capsys, *json_args)] == alone[::-1]
    assert json.loads(alone[0][1])["distance"] == 0 and alone[1][1].splitlines()[0] == "0"
