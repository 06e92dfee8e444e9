"""The benchmark's workloads: what one pass runs and how its output is gated.

Why each workload exists:

* ``vaisman-d3`` is acceptance criterion 1 at D = 3: build a fresh flat
  realization, check V1, then V2, then ``classify``.  Its time goes to the
  generic proofs of the first-order checks C3 and C5 on a few large
  polynomials; ``classify`` answers C3 and C5 from ``check_cache``.
* ``corpus`` is what command-line users run: every fixture scenario through
  ``load_scenario``, ``cli.run`` and the machine report.  Its time goes to
  many small brackets, with the second-order C1 proofs on top.
* ``counterexample-d3`` is the only workload where every check FAILs, so it
  measures time to a counterexample.  C5 fails only on generic data, so its
  witness search on a large residual dominates; the other two workloads
  never reach that code.  It is too noisy on a shared 2-core host for the
  declared set in ``BENCHMARK.json`` and runs through ``run.py`` and
  ``record.py`` (see README.md).

The workload seed becomes ``GenericSectionFamily.start - 1`` (``vaisman-d3``) or
the scenario seed (``corpus``, ``counterexample-d3``).  It is reduced modulo
``SEED_RANGE`` so the engine's parameter budget is never exhausted.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "tests" / "fixtures" / "scenarios"
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
# Machine reports of every fixture scenario, recorded with seed ordinal 0.
EXPECTED = BENCH_DIR / "expected"

SEED_RANGE = 1000
NAMES = ("vaisman-d3", "corpus", "counterexample-d3")
_MODULES = ("poly", "algebroid", "doubled", "axioms", "cli")


def ordinal(seed: int) -> int:
    return seed % SEED_RANGE


def import_engine() -> SimpleNamespace:
    """Import the engine from this checkout's ``src`` (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"doubled_algebroids.{name}") for name in _MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"engine imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def scenario_paths() -> list[Path]:
    return sorted(SCENARIOS.glob("*.json"))


def counterexample_scenario(seed: int) -> dict:
    """Flat D = 3, unrestricted, with a flux that is not antisymmetric, so
    every requested check fails."""
    dim = 3

    def anchor(offset: int) -> list[list[str]]:
        return [["1" if m == offset + i else "0" for i in range(dim)] for m in range(2 * dim)]

    return {
        "dimension": dim,
        "admissibility": "unrestricted",
        "seed": ordinal(seed),
        "algebroid_E": {"anchor": anchor(0), "C": []},
        "algebroid_Estar": {"anchor": anchor(dim), "C": []},
        "flux": [[1, 2, 6, "1"], [1, 6, 2, "1"]],
        "checks": ["C1", "C2", "C4", "C5", "twist-V2", "twist-C2"],
    }


def requested_checks(path: Path) -> list[str]:
    return json.loads(path.read_text(encoding="utf-8")).get("checks", ["classify"])


def attempted(name: str) -> int:
    """Verdicts one pass of the workload is gated on."""
    if name == "vaisman-d3":
        return 3  # V1, V2 and the label
    if name == "corpus":
        return sum(len(requested_checks(p)) for p in scenario_paths())
    return len(counterexample_scenario(0)["checks"])


# -- set-up: import, parse and validate the inputs, build each realization once --


def setup(eng: SimpleNamespace, name: str, seed: int) -> None:
    if name == "vaisman-d3":
        eng.doubled.DoubledRealization.flat(3)
    elif name == "corpus":
        for path in scenario_paths():
            eng.cli.load_scenario(str(path)).realization()
    else:
        eng.cli.parse_scenario(counterexample_scenario(seed)).realization()


# -- one pass -----------------------------------------------------------------------


def run_pass(eng: SimpleNamespace, name: str, seed: int):
    if name == "vaisman-d3":
        ax = eng.axioms
        R = eng.doubled.DoubledRealization.flat(3)
        family = ax.GenericSectionFamily(degree=2, count=3, start=1 + ordinal(seed))
        v1 = ax.check_axiom(R, "V1", family)
        v2 = ax.check_axiom(R, "V2", family)
        label, _ = ax.classify(R, family)
        return v1.status, v2.status, label
    if name == "corpus":
        out = []
        for path in scenario_paths():
            scenario = eng.cli.load_scenario(str(path))
            scenario.seed += ordinal(seed)
            out.append((path, eng.cli.emit_report(eng.cli.run(scenario), "machine")))
        return out
    scenario = eng.cli.parse_scenario(counterexample_scenario(seed))
    report = eng.cli.run(scenario)
    eng.cli.emit_report(report, "machine")
    return scenario, report


# -- output gate --------------------------------------------------------------------


def verify(eng: SimpleNamespace, name: str, seed: int, out) -> list[str]:
    """One message per wrong verdict; an empty list means the pass is correct."""
    if name == "vaisman-d3":
        v1, v2, label = out
        wrong = [f"V1 is {v1}, want PASS"] if v1 != "PASS" else []
        wrong += [f"V2 is {v2}, want PASS"] if v2 != "PASS" else []
        wrong += [f"label is {label}, want Vaisman"] if label != "Vaisman" else []
        return wrong
    if name == "corpus":
        return _verify_corpus(out, seed)
    return _verify_counterexample(eng, *out)


def _verify_corpus(out, seed: int) -> list[str]:
    """Each machine report must equal, byte for byte, the one recorded at
    ordinal 0 with its seed field moved by the ordinal; at ordinal 0 the
    golden-mini report must also equal the repository's golden file."""
    wrong = []
    for path, payload in out:
        recorded = json.loads((EXPECTED / f"{path.stem}.machine.json").read_bytes())
        recorded["seed"] += ordinal(seed)
        expected = (json.dumps(recorded, sort_keys=True, separators=(",", ":")) + "\n").encode()
        golden = GOLDEN / f"{path.stem}.machine.json"
        if payload != expected or (
            ordinal(seed) == 0 and golden.exists() and payload != golden.read_bytes()
        ):
            wrong += [f"{path.stem}: {c} in a report that differs" for c in requested_checks(path)]
    return wrong


_TWIST_V2 = re.compile(r"F\[(\d+),(\d+),(\d+)\]\+F\[\d+,\d+,\d+\]")
_TWIST_C2 = re.compile(r"rho\.F\[(\d+),(\d+);(\d+)\]")


def _verify_counterexample(eng: SimpleNamespace, scenario, report) -> list[str]:
    """Every check must FAIL, and every witness must replay to a failure
    through the public API on a freshly built realization."""
    wrong = [
        f"{check} is {status}, want FAIL"
        for check, status in report.requested_status.items()
        if status != "FAIL"
    ]
    R = scenario.realization()
    family = eng.axioms.GenericSectionFamily(
        degree=scenario.degree, count=scenario.sections, start=scenario.seed + 1
    )
    for entry in report.entries:
        if entry.status == "FAIL" and not _replays(eng, R, family, scenario.flux, entry):
            wrong.append(f"{entry.check_id}: witness {entry.witness} does not replay")
    return wrong


def _replays(eng, R, family, flux, entry) -> bool:
    """True when the witness is a counterexample.

    Witness sections must make ``check_axiom`` FAIL when given as
    ``explicit_sections``.  That alone proves little, since ``check_axiom``
    falls back to a generic proof that FAILs C5 whatever sections it is
    given, so the axiom's residual, restated with public operations, must
    also be nonzero on the witness inputs.
    """
    d = eng.doubled
    witness = entry.witness
    check = entry.check_id
    if check == "twist-V2":
        a, b, c = map(int, _TWIST_V2.fullmatch(witness["component"]).groups())
        return not (flux.lowered(a, b, c) + flux.lowered(a, c, b)).is_zero()
    if check == "twist-C2":
        m, n, l = map(int, _TWIST_C2.fullmatch(witness["component"]).groups())
        rho = d.rho_V_matrix(R)
        value = eng.poly.poly_sum(
            rho[l - 1][k - 1] * flux.component(m, n, k) for k in range(1, 2 * R.dim + 1)
        )
        return not value.is_zero()

    poly = lambda src: eng.poly.parse_expr(src, R.dim)
    ins = {
        name: poly(v) if isinstance(v, str)
        else d.DoubledSection.from_parts(tuple(map(poly, v["X"])), tuple(map(poly, v["xi"])))
        for name, v in witness["inputs"].items()
    }
    if all(p.is_zero() for p in _residual(eng, R, flux, check, ins)):
        return False
    if check == "C4":
        return True
    sections = [ins[name] for name in sorted(ins)]
    return eng.axioms.check_axiom(R, check, family, flux, sections).status == "FAIL"


def _residual(eng, R, flux, check: str, ins: dict) -> list:
    """The axiom's defect on concrete inputs (twisted bracket, flat chart)."""
    d, ax = eng.doubled, eng.axioms
    br = lambda a, b: d.twisted_c_bracket(R, flux, a, b)
    if check == "C4":
        return [d.pairing("+", d.D_op(R, ins["f"]), d.D_op(R, ins["g"]))]
    e1, e2 = ins["e1"], ins["e2"]
    if check == "C2":
        lhs = d.rho_V(R, br(e1, e2))
        rhs = eng.algebroid.tangent_bracket(d.rho_V(R, e1), d.rho_V(R, e2), R.dim)
        return [a - b for a, b in zip(lhs, rhs)]
    e3 = ins["e3"]
    if check == "C1":
        anomaly = d.D_op(R, ax.t_scalar(R, e1, e2, e3, flux))
        return [c for _, c in (ax.jacobiator(R, e1, e2, e3, flux) - anomaly).components()]
    p23 = d.pairing("+", e2, e3)
    anchored = R.E.rho_dot(e1.X, p23) + R.Estar.rho_dot(e1.xi, p23)
    left = br(e1, e2) + d.D_op(R, d.pairing("+", e1, e2))
    right = br(e1, e3) + d.D_op(R, d.pairing("+", e1, e3))
    return [anchored - d.pairing("+", left, e3) - d.pairing("+", e2, right)]  # C5
