"""Batch front end: load a scenario file, run checks, emit a report.

Scenario files are JSON.  Expressions are strings in the package grammar
(integers, rationals a/b, x<k>, xt<k>, + - * ^ and parentheses).  Schema:

    {
      "dimension": int,
      "degree": int,                   # optional, default 2
      "sections": int,                 # optional, default 3
      "seed": int,                     # optional, default 0
      "admissibility": "unrestricted" | "x-only" | "xt-only" | {"mask": [...]},
      "function_admissibility": ...,   # optional, defaults to admissibility
      "algebroid_E":     {"anchor": [[expr] x D] x 2D, "C": [[i, j, k, expr], ...]},
      "algebroid_Estar": {"anchor": ..., "C": ...},
      "flux": [[M, N, L, expr], ...],  # optional, doubled indices 1..2D
      "explicit_sections": [{"X": [expr x D], "xi": [expr x D]}, ...],
      "checks": ["classify", "C1", ..., "bianchi", "quadratic"]
    }

The machine format is canonical (sorted keys, no whitespace variation),
so identical scenario and seed give byte-identical reports.  Exit status:
0 when every requested check passes, 1 when any fails, 2 when nothing
fails but some check was skipped.  A malformed scenario, a report that
cannot be written and a usage error print an error and exit with 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import __version__
from .algebroid import E, ESTAR, FrameAlgebroid
from .axioms import (
    CHECKS,
    FAIL,
    PASS,
    SKIPPED,
    AxiomReport,
    CheckInputs,
    GenericSectionFamily,
    label_from_statuses,
    parameter_count,
)
from .doubled import Admissibility, DoubledRealization, DoubledSection, FluxTensor, RealizationError
from .generic import PARAMETER_BUDGET
from .poly import ExprError, PolyExpr, parse_expr

__all__ = ["Scenario", "Report", "ScenarioError", "load_scenario", "run", "emit_report", "main"]

KNOWN_CHECKS = tuple(CHECKS)

# Exit status of a run that ends in an error instead of a report.
_EXIT_ERROR = 3


def _worst(statuses: Iterable[str]) -> str:
    """FAIL if any status fails, else SKIPPED if any was skipped, else PASS."""
    statuses = set(statuses)
    if FAIL in statuses:
        return FAIL
    return SKIPPED if SKIPPED in statuses else PASS


class ScenarioError(ValueError):
    """A malformed scenario file; the message names the offending field."""


@dataclass
class Scenario:
    """A fully validated scenario: everything parsed, all indices in range."""

    dimension: int
    degree: int
    sections: int
    seed: int
    admissibility: Admissibility
    function_admissibility: Admissibility
    algebroid_E: FrameAlgebroid
    algebroid_Estar: FrameAlgebroid
    flux: Optional[FluxTensor]
    explicit_sections: list[DoubledSection]
    checks: list[str]
    canonical: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def realization(self) -> DoubledRealization:
        try:
            return DoubledRealization(
                self.algebroid_E,
                self.algebroid_Estar,
                constraint=self.admissibility,
                function_constraint=self.function_admissibility,
                degree=self.degree,
                sections=self.sections,
            )
        except RealizationError as exc:
            raise ScenarioError(f"realization invalid: {exc}") from exc


@dataclass
class Report:
    """One run's outcome: per-check entries plus the classification label."""

    scenario_digest: str
    engine_version: str
    dimension: int
    degree: int
    sections: int
    seed: int
    admissibility: str
    function_admissibility: str
    checks: list[str]
    entries: list[AxiomReport]
    label: Optional[str]
    requested_status: dict[str, str]

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, SKIPPED: 2}[_worst(self.requested_status.values())]


def _field(data: dict, name: str, types, default=None, required: bool = False):
    if name not in data:
        if required:
            raise ScenarioError(f"missing required field {name!r}")
        return default
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ScenarioError(f"field {name!r} has the wrong type")
    return value


def _parse_admissibility(raw, dim: int, fieldname: str) -> Admissibility:
    if raw is None or raw == "unrestricted":
        return Admissibility.unrestricted()
    if raw == "x-only":
        return Admissibility.x_only(dim)
    if raw == "xt-only":
        return Admissibility.xt_only(dim)
    if isinstance(raw, dict) and isinstance(raw.get("mask"), list):
        try:
            return Admissibility.from_names(raw["mask"], dim)
        except RealizationError as exc:
            raise ScenarioError(f"{fieldname}.mask: {exc}") from exc
    raise ScenarioError(
        f"{fieldname} must be \"unrestricted\", \"x-only\", \"xt-only\" or {{\"mask\": [...]}}"
    )


def _parse_poly(src, dim: int, fieldname: str) -> PolyExpr:
    if not isinstance(src, str):
        raise ScenarioError(f"{fieldname}: expected an expression string")
    try:
        return parse_expr(src, dim)
    except ExprError as exc:
        raise ScenarioError(f"{fieldname}: {exc}") from exc


def _parse_entries(raw: list, dim: int, fieldname: str, shape: str) -> dict:
    """Sparse three-index entries given as [index, index, index, expr]."""
    entries = {}
    for t, quad in enumerate(raw):
        if not (isinstance(quad, list) and len(quad) == 4):
            raise ScenarioError(f"{fieldname}[{t}] must be {shape}")
        key, src = tuple(quad[:3]), quad[3]
        if not all(type(v) is int for v in key):
            raise ScenarioError(f"{fieldname}[{t}]: indices must be integers")
        poly = _parse_poly(src, dim, f"{fieldname}[{t}]")
        if key in entries:
            raise ScenarioError(f"{fieldname}[{t}]: duplicate indices {key}")
        entries[key] = poly
    return entries


def _parse_algebroid(raw, side: str, dim: int, fieldname: str) -> FrameAlgebroid:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{fieldname} must be an object with \"anchor\" and \"C\"")
    anchor_raw = _field(raw, "anchor", list, required=True)
    if len(anchor_raw) != 2 * dim:
        raise ScenarioError(f"{fieldname}.anchor must have {2 * dim} rows")
    anchor = []
    for m, row in enumerate(anchor_raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(f"{fieldname}.anchor[{m}] must have {dim} entries")
        anchor.append(
            tuple(_parse_poly(src, dim, f"{fieldname}.anchor[{m}][{i}]") for i, src in enumerate(row))
        )
    structure = _parse_entries(_field(raw, "C", list, default=[]), dim, f"{fieldname}.C", "[i, j, k, expr]")
    try:
        return FrameAlgebroid(side, dim, anchor, structure)
    except ValueError as exc:
        raise ScenarioError(f"{fieldname}: {exc}") from exc


def _parse_flux(raw, dim: int) -> Optional[FluxTensor]:
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ScenarioError("flux must be a list of [M, N, L, expr] quadruples")
    try:
        return FluxTensor(dim, _parse_entries(raw, dim, "flux", "[M, N, L, expr]"))
    except ValueError as exc:
        raise ScenarioError(f"flux: {exc}") from exc


def parse_scenario(data: dict) -> Scenario:
    """Validate a parsed JSON object into a Scenario (all expressions parsed
    eagerly, all indices checked)."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    dim = _field(data, "dimension", int, required=True)
    if dim < 1:
        raise ScenarioError("dimension must be >= 1")
    degree = _field(data, "degree", int, default=2)
    sections = _field(data, "sections", int, default=3)
    seed = _field(data, "seed", int, default=0)
    if degree < 0 or sections < 1 or seed < 0:
        raise ScenarioError("degree must be >= 0, sections >= 1, seed >= 0")
    admissibility = _parse_admissibility(data.get("admissibility"), dim, "admissibility")
    function_admissibility = (
        _parse_admissibility(data["function_admissibility"], dim, "function_admissibility")
        if "function_admissibility" in data
        else admissibility
    )
    alg_e = _parse_algebroid(_field(data, "algebroid_E", dict, required=True), E, dim, "algebroid_E")
    alg_es = _parse_algebroid(
        _field(data, "algebroid_Estar", dict, required=True), ESTAR, dim, "algebroid_Estar"
    )
    flux = _parse_flux(data.get("flux"), dim)
    explicit = []
    for s, raw_sec in enumerate(_field(data, "explicit_sections", list, default=[])):
        if not (isinstance(raw_sec, dict) and "X" in raw_sec and "xi" in raw_sec):
            raise ScenarioError(f"explicit_sections[{s}] must be {{\"X\": [...], \"xi\": [...]}}")
        xs, xis = raw_sec["X"], raw_sec["xi"]
        if not (isinstance(xs, list) and isinstance(xis, list) and len(xs) == len(xis) == dim):
            raise ScenarioError(f"explicit_sections[{s}]: X and xi must each have {dim} entries")
        explicit.append(
            DoubledSection.from_parts(
                tuple(_parse_poly(e, dim, f"explicit_sections[{s}].X[{i}]") for i, e in enumerate(xs)),
                tuple(_parse_poly(e, dim, f"explicit_sections[{s}].xi[{i}]") for i, e in enumerate(xis)),
            )
        )
    checks = _field(data, "checks", list, default=["classify"])
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ScenarioError(f"checks: unknown check id {c!r} (known: {', '.join(KNOWN_CHECKS)})")
    if not checks:
        raise ScenarioError("checks must not be empty")
    return Scenario(
        dimension=dim,
        degree=degree,
        sections=sections,
        seed=seed,
        admissibility=admissibility,
        function_admissibility=function_admissibility,
        algebroid_E=alg_e,
        algebroid_Estar=alg_es,
        flux=flux,
        explicit_sections=explicit,
        checks=list(checks),
        canonical=data,
    )


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioError("scenario nests lists and objects too deeply to read") from None
    return parse_scenario(data)


def run(scenario: Scenario) -> Report:
    """Execute the requested checks and aggregate the report."""
    for check in scenario.checks:
        needed = CHECKS[check].sections
        if scenario.sections < needed:
            raise ScenarioError(f"check {check} needs sections >= {needed}, got {scenario.sections}")
    family = GenericSectionFamily(
        degree=scenario.degree, count=scenario.sections, start=scenario.seed + 1
    )
    last = parameter_count(
        scenario.dimension, family, scenario.admissibility, scenario.function_admissibility
    )
    if last > PARAMETER_BUDGET:
        raise ScenarioError(
            f"generic data would need parameter ordinals up to {last}, over the budget of "
            f"{PARAMETER_BUDGET}; lower dimension, degree, sections or seed"
        )
    realization = scenario.realization()
    for s, sec in enumerate(scenario.explicit_sections):
        for label, comp in sec.components():
            if not scenario.admissibility.allows(comp):
                raise ScenarioError(
                    f"explicit_sections[{s}].{label} violates the admissibility mask"
                )
    inputs = CheckInputs(realization, family, scenario.flux, scenario.explicit_sections)
    entries: list[AxiomReport] = []
    requested_status: dict[str, str] = {}
    label: Optional[str] = None

    for check in scenario.checks:
        if CHECKS[check].needs_flux and scenario.flux is None:
            reports = [AxiomReport(check, SKIPPED, detail="no flux tensor in the scenario")]
        else:
            reports = CHECKS[check].run(inputs, check)
        entries.extend(reports)
        if check == "classify":
            label, _ = label_from_statuses({r.check_id for r in reports if r.passed()})
            requested_status[check] = PASS  # classification itself always completes
        else:
            requested_status[check] = _worst(r.status for r in reports)

    return Report(
        scenario_digest=scenario.digest(),
        engine_version=__version__,
        dimension=scenario.dimension,
        degree=scenario.degree,
        sections=scenario.sections,
        seed=scenario.seed,
        admissibility=scenario.admissibility.describe(),
        function_admissibility=scenario.function_admissibility.describe(),
        checks=list(scenario.checks),
        entries=entries,
        label=label,
        requested_status=requested_status,
    )


def emit_report(report: Report, fmt: str = "text") -> bytes:
    """Render a report.  The machine format is canonical: sorted keys and
    fixed separators, so equal reports are byte-identical."""
    if fmt == "machine":
        payload = {
            "admissibility": report.admissibility,
            "checks": report.checks,
            "classification": report.label,
            "degree": report.degree,
            "dimension": report.dimension,
            "engine_version": report.engine_version,
            "entries": [entry.to_json_dict() for entry in report.entries],
            "exit_code": report.exit_code(),
            "function_admissibility": report.function_admissibility,
            "requested_status": report.requested_status,
            "scenario_digest": report.scenario_digest,
            "sections": report.sections,
            "seed": report.seed,
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"doubled-algebroids {report.engine_version}",
        f"scenario {report.scenario_digest[:16]}  dimension={report.dimension}  "
        f"degree={report.degree}  sections={report.sections}  seed={report.seed}",
        f"admissibility: sections {report.admissibility}, functions {report.function_admissibility}",
        "",
    ]
    for entry in report.entries:
        suffix = f"  (degree {entry.degree})" if entry.degree is not None else ""
        lines.append(f"[{entry.status}] {entry.check_id}{suffix}")
        if entry.detail:
            lines.append(f"    note: {entry.detail}")
        if entry.status == FAIL and entry.witness is not None:
            for name, value in entry.witness.get("inputs", {}).items():
                lines.append(f"    {name} = {value}")
            lines.append(
                f"    component {entry.witness.get('component')}"
                f" at {entry.witness.get('point')} evaluates to {entry.witness.get('value')}"
            )
            if entry.residual is not None:
                lines.append(f"    residual: {entry.residual}")
    lines.append("")
    if report.label is not None:
        lines.append(f"classification: {report.label}")
    lines.append(f"exit: {report.exit_code()}")
    return ("\n".join(lines) + "\n").encode("utf-8")


class _ArgumentParser(argparse.ArgumentParser):
    """Exits with ``_EXIT_ERROR`` on a usage error (argparse would use 2,
    the SKIPPED status)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_ERROR, f"{self.prog}: error: {message}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _ArgumentParser(
        prog="doubled-algebroids",
        description="Exact checker for Courant-family bracket axioms on flat doubled charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the checks requested by a scenario file")
    runp.add_argument("scenario", help="path to the scenario JSON file")
    runp.add_argument("--format", choices=("text", "machine"), default="text")
    runp.add_argument("--degree", type=int, default=None, help="override the generic degree bound")
    runp.add_argument("--sections", type=int, default=None, help="override the section count")
    runp.add_argument("--seed", type=int, default=None, help="override the seed ordinal")
    runp.add_argument("--out", default=None, help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        if args.degree is not None:
            scenario.degree = args.degree
        if args.sections is not None:
            scenario.sections = args.sections
        if args.seed is not None:
            scenario.seed = args.seed
        if scenario.degree < 0 or scenario.sections < 1 or scenario.seed < 0:
            raise ScenarioError("degree must be >= 0, sections >= 1, seed >= 0")
        report = run(scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    payload = emit_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return _EXIT_ERROR
    else:
        sys.stdout.buffer.write(payload)
    return report.exit_code()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
