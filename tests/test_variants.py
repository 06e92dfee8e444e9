"""Byte identity of the reports of a fixed matrix of command-line variants.

``fixtures/variants.json`` holds, for each variant, the sha256 of its
machine report and of its text report and its exit status.  A change that
must not change any report (a refactor, a faster proof) is gated by this
file; a change that means to change reports re-records it with

    PYTHONPATH=src python tests/test_variants.py --record

and lists each changed entry.  The variants are:

* every fixture scenario at its own seed, at ``--seed 0``, ``--seed 5``,
  ``--sections 4`` and ``--sections 5``;
* every fixture scenario of dimension <= 2 requesting every check, at
  ``--degree 0``, ``1`` and ``3``;
* the D = 3 counterexample scenario below, at ``--seed 0`` and ``7``.

Each variant runs in-process once, with its overrides applied to the loaded
scenario the way ``cli.main`` applies them, and both formats are rendered
from that one report.
"""

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

from doubled_algebroids.cli import KNOWN_CHECKS, emit_report, parse_scenario, run

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = FIXTURES / "scenarios"
MANIFEST = FIXTURES / "variants.json"


def counterexample_d3() -> dict:
    """Flat D = 3, unrestricted, with a flux that is not antisymmetric, so
    every requested check fails."""

    def anchor(offset):
        return [["1" if m == offset + i else "0" for i in range(3)] for m in range(6)]

    return {
        "dimension": 3,
        "admissibility": "unrestricted",
        "algebroid_E": {"anchor": anchor(0), "C": []},
        "algebroid_Estar": {"anchor": anchor(3), "C": []},
        "flux": [[1, 2, 6, "1"], [1, 6, 2, "1"]],
        "checks": ["C1", "C2", "C4", "C5", "twist-V2", "twist-C2"],
    }


def variants() -> dict[str, tuple]:
    """Each variant's id, as (scenario data, CLI overrides)."""
    out = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        name, data = path.stem, json.loads(path.read_text(encoding="utf-8"))
        out[name] = (data, {})
        out[f"{name} --seed 0"] = (data, {"seed": 0})
        out[f"{name} --seed 5"] = (data, {"seed": 5})
        out[f"{name} --sections 4"] = (data, {"sections": 4})
        out[f"{name} --sections 5"] = (data, {"sections": 5})
        if data["dimension"] <= 2:
            every = {**data, "checks": list(KNOWN_CHECKS)}
            for degree in (0, 1, 3):
                out[f"{name} every-check --degree {degree}"] = (every, {"degree": degree})
    for seed in (0, 7):
        out[f"counterexample-d3 --seed {seed}"] = (counterexample_d3(), {"seed": seed})
    return out


def outcome(data: dict, overrides: dict) -> dict:
    """The exit status and the digests of both report formats of one variant."""
    scenario = parse_scenario(copy.deepcopy(data))
    for name, value in overrides.items():
        setattr(scenario, name, value)
    report = run(scenario)
    return {
        "exit": report.exit_code(),
        "machine": _sha256(emit_report(report, "machine")),
        "text": _sha256(emit_report(report, "text")),
    }


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


VARIANTS = variants()


def test_manifest_lists_exactly_the_variants():
    assert sorted(_manifest()) == sorted(VARIANTS)
    assert len(VARIANTS) == 13 * 5 + 11 * 3 + 2


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_report_is_byte_identical(variant):
    assert outcome(*VARIANTS[variant]) == _manifest()[variant]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_variants.py --record")
    recorded = {variant: outcome(*VARIANTS[variant]) for variant in sorted(VARIANTS)}
    MANIFEST.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} variants in {MANIFEST}")
