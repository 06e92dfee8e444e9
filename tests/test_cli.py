import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubled_algebroids import axioms
from doubled_algebroids.cli import (
    ScenarioError,
    emit_report,
    load_scenario,
    main,
    parse_scenario,
    run,
)

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = FIXTURES / "scenarios"


def minimal_scenario(**overrides):
    data = {
        "dimension": 1,
        "algebroid_E": {"anchor": [["1"], ["0"]], "C": []},
        "algebroid_Estar": {"anchor": [["0"], ["1"]], "C": []},
        "checks": ["classify"],
    }
    data.update(overrides)
    return data


def flat_anchors(dim, offset):
    return [["1" if m == offset + i else "0" for i in range(dim)] for m in range(2 * dim)]


# -- loading -------------------------------------------------------------------


def test_load_minimal_scenario_defaults(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal_scenario()), encoding="utf-8")
    scenario = load_scenario(str(path))
    assert scenario.dimension == 1
    assert scenario.degree == 2
    assert scenario.sections == 3
    assert scenario.seed == 0
    assert scenario.checks == ["classify"]


def test_load_rejects_out_of_range_expression(tmp_path):
    data = minimal_scenario()
    data["algebroid_E"]["anchor"][0][0] = "x0"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"algebroid_E\.anchor\[0\]\[0\].*out of range"):
        load_scenario(str(path))


def test_load_accepts_unconstrained_flux_entry(tmp_path):
    data = minimal_scenario(flux=[[1, 1, 1, "1"]])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    scenario = load_scenario(str(path))
    assert scenario.flux is not None
    assert not scenario.flux.is_zero()


def test_load_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(bad))


def test_parse_rejects_unknown_check():
    with pytest.raises(ScenarioError, match="unknown check id"):
        parse_scenario(minimal_scenario(checks=["classify", "frobnicate"]))


def test_parse_rejects_bad_admissibility():
    with pytest.raises(ScenarioError, match="admissibility"):
        parse_scenario(minimal_scenario(admissibility="sideways"))


def test_parse_rejects_wrong_anchor_shape():
    data = minimal_scenario()
    data["algebroid_E"]["anchor"] = [["1"]]
    with pytest.raises(ScenarioError, match="anchor must have 2 rows"):
        parse_scenario(data)


def test_parse_rejects_bad_structure_triple():
    data = minimal_scenario()
    data["algebroid_E"]["C"] = [[1, 1, "x"]]
    with pytest.raises(ScenarioError, match=r"C\[0\]"):
        parse_scenario(data)


def test_explicit_sections_checked_against_mask():
    data = minimal_scenario(
        admissibility="x-only",
        explicit_sections=[{"X": ["xt1"], "xi": ["0"]}],
    )
    scenario = parse_scenario(data)
    with pytest.raises(ScenarioError, match="admissibility"):
        run(scenario)


# -- running --------------------------------------------------------------------


def test_run_classify_only_exits_zero():
    report = run(parse_scenario(minimal_scenario()))
    assert report.label == "Vaisman"
    assert report.exit_code() == 0


def test_run_requested_failure_exits_one():
    report = run(parse_scenario(minimal_scenario(checks=["classify", "strong-fn"])))
    entry = {e.check_id: e for e in report.entries}["strong-fn"]
    assert entry.status == "FAIL"
    assert entry.witness["inputs"] == {"f": "x1", "g": "xt1"}
    assert report.exit_code() == 1


def test_run_skipped_only_exits_two():
    data = minimal_scenario(checks=["strong-fn"])
    data["algebroid_Estar"]["anchor"] = [["0"], ["0"]]
    report = run(parse_scenario(data))
    assert report.exit_code() == 2


def test_machine_report_deterministic():
    scenario = parse_scenario(minimal_scenario(checks=["classify", "strong-fn"]))
    first = emit_report(run(scenario), "machine")
    second = emit_report(run(parse_scenario(minimal_scenario(checks=["classify", "strong-fn"]))), "machine")
    assert first == second


def test_text_report_carries_label_line():
    report = run(parse_scenario(minimal_scenario()))
    text = emit_report(report, "text").decode("utf-8")
    assert "classification: Vaisman" in text
    assert "[FAIL] C4" in text


def test_unknown_format_rejected():
    report = run(parse_scenario(minimal_scenario()))
    with pytest.raises(ValueError, match="format"):
        emit_report(report, "yaml")


def test_golden_machine_report():
    scenario = load_scenario(str(SCENARIOS / "golden-mini-d1.json"))
    got = emit_report(run(scenario), "machine")
    expected = (FIXTURES / "golden" / "golden-mini-d1.machine.json").read_bytes()
    assert got == expected


def test_corpus_scenarios_all_load_and_validate():
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(str(path))
        assert scenario.dimension >= 1
        scenario.realization()


def test_every_failed_entry_carries_an_evaluated_witness():
    # small scenarios exercising several failing checks
    for name in ("flat-unrestricted-d2", "twist-symmetric-d2", "golden-mini-d1"):
        report = run(load_scenario(str(SCENARIOS / f"{name}.json")))
        for entry in report.entries:
            if entry.status == "FAIL":
                assert entry.witness is not None, entry.check_id
                from fractions import Fraction

                assert Fraction(entry.witness["value"]) != 0
                assert entry.residual is not None


# -- entry point -------------------------------------------------------------------


def test_main_writes_report_and_propagates_exit(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(minimal_scenario()), encoding="utf-8")
    out_path = tmp_path / "report.txt"
    code = main(["run", str(scenario_path), "--out", str(out_path)])
    assert code == 0
    assert "classification: Vaisman" in out_path.read_text(encoding="utf-8")


def test_main_overrides_degree_sections_seed(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(minimal_scenario()), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = main(
        [
            "run",
            str(scenario_path),
            "--format",
            "machine",
            "--degree",
            "1",
            "--sections",
            "4",
            "--seed",
            "3",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["degree"] == 1
    assert payload["sections"] == 4
    assert payload["seed"] == 3


def test_main_reports_scenario_errors(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text("{}", encoding="utf-8")
    code = main(["run", str(scenario_path)])
    assert code == 3
    assert "missing required field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, argv, message",
    [
        ({"dimension": True}, [], "'dimension' has the wrong type"),
        ({"seed": 99999}, [], "over the budget"),
        ({"sections": 1, "checks": ["C3"]}, [], "C3 needs sections >= 2"),
        ({"sections": 1}, [], "classify needs sections >= 3"),
        ({"flux": [[True, 2, 1, "1"]], "checks": ["C4"]}, [], "flux[0]: indices must be integers"),
        (
            {
                "dimension": 2,
                "algebroid_E": {"anchor": flat_anchors(2, 0), "C": [[True, 2, 1, "0"]]},
                "algebroid_Estar": {"anchor": flat_anchors(2, 2), "C": []},
                "checks": ["C4"],
            },
            [],
            "algebroid_E.C[0]: indices must be integers",
        ),
        (
            {
                "dimension": 3,
                "algebroid_E": {"anchor": flat_anchors(3, 0), "C": []},
                "algebroid_Estar": {"anchor": flat_anchors(3, 3), "C": []},
                "checks": ["C4"],
            },
            ["--degree", "50"],
            "over the budget",
        ),
    ],
    ids=[
        "dimension-bool",
        "seed-over-budget",
        "sections-below-C3",
        "sections-below-classify",
        "flux-index-bool",
        "structure-index-bool",
        "degree-over-budget",
    ],
)
def test_main_rejects_bad_input_with_scenario_error(tmp_path, capsys, overrides, argv, message):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(minimal_scenario(**overrides)), encoding="utf-8")
    assert main(["run", str(scenario_path), *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_main_reports_unwritable_out_path(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(minimal_scenario()), encoding="utf-8")
    out_path = tmp_path / "missing-dir" / "r.json"
    assert main(["run", str(scenario_path), "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write the report")
    assert not out_path.exists()


def test_usage_error_exits_with_error_status(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "too deeply"),
        (
            json.dumps(
                minimal_scenario(
                    algebroid_E={"anchor": [["(" * 3000 + "1" + ")" * 3000], ["0"]], "C": []}
                )
            ),
            "parentheses nested deeper than 100",
        ),
    ],
    ids=["json-array", "anchor-parentheses"],
)
def test_deep_nesting_ends_in_scenario_error(tmp_path, capsys, text, message):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioError, match=message):
        load_scenario(str(scenario_path))
    assert main(["run", str(scenario_path)]) == 3
    assert message in capsys.readouterr().err


def test_twist_conditions_run_once_per_run(monkeypatch):
    calls = []
    original = axioms.check_twist_conditions

    def counted(R, F):
        calls.append(F)
        return original(R, F)

    monkeypatch.setattr(axioms, "check_twist_conditions", counted)
    report = run(parse_scenario(minimal_scenario(flux=[[1, 1, 1, "1"]], checks=["twist-V2", "twist-C2"])))
    assert [e.check_id for e in report.entries] == ["twist-V2", "twist-C2"]
    assert len(calls) == 1


def test_console_entry_point(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(minimal_scenario()), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "doubled_algebroids.cli", "run", str(scenario_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "classification: Vaisman" in result.stdout
    assert result.stderr == ""


# -- fuzzing -------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
# A valid scenario with one node replaced by arbitrary JSON reaches the
# later stages of validation; arbitrary JSON alone mostly stops at the first.
FUZZ_BASE = minimal_scenario(
    admissibility={"mask": ["x1", "xt1"]},
    function_admissibility="x-only",
    flux=[[1, 2, 1, "x1"]],
    explicit_sections=[{"X": ["x1"], "xi": ["0"]}],
    checks=["C4", "twist-V2", "bianchi"],
)


def _node_paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def _replaced(path, new):
    data = copy.deepcopy(FUZZ_BASE)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return data


ONE_NODE_REPLACED = st.builds(
    _replaced, st.sampled_from(list(_node_paths(FUZZ_BASE))[1:]), JSON_VALUES
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=JSON_VALUES | ONE_NODE_REPLACED)
def test_arbitrary_json_gives_a_report_or_a_scenario_error(tmp_path_factory, data):
    try:
        scenario = parse_scenario(data)
    except ScenarioError:
        pass
    else:
        try:
            assert run(scenario).exit_code() in (0, 1, 2)
        except ScenarioError:
            pass
    folder = tmp_path_factory.mktemp("fuzz")
    scenario_path = folder / "s.json"
    scenario_path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["run", str(scenario_path), "--format", "machine", "--out", str(folder / "r.json")])
    assert code in (0, 1, 2, 3)
    if code != 3:
        assert json.loads((folder / "r.json").read_text(encoding="utf-8"))["exit_code"] == code
