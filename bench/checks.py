"""Checks on each job's output JSON.

- `check_output`: the shape the CLI promises, the sum rule
  sum(means) = accuracy_full - accuracy_empty and, for the fairness audit,
  sensitive_asv = the sum of the sensitive features' means;
- `check_reference`: global means, `sensitive_asv` and `cumulative_asv` against
  the values recorded in reference.json for the workload and seed;
- `normalized_bytes`: what a rerun of the same job must reproduce byte for
  byte, which is the output with its echoed path blanked.

The first two return a list of problems, empty when the output passes.

Both tolerances are those the package's own tests use for these identities:
the sum rule is tested to 1e-9, and estimators that must agree (permutation vs
subset form) are compared to 1e-9.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SUM_RULE_ATOL = 1e-9
REFERENCE_ATOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def attribution_part(kind: str, doc: dict) -> dict:
    """The global-attribution block of a job's output."""
    return doc["attribution"] if kind == "featselect" else doc


def reference_values(kind: str, doc: dict) -> dict:
    """The numbers the reference check compares, taken from one output."""
    out = {"means": attribution_part(kind, doc)["means"]}
    if kind == "fairness":
        out["sensitive_asv"] = doc["sensitive_asv"]
    if kind == "featselect":
        out["cumulative_asv"] = doc["cumulative_asv"]
    return out


def check_output(kind: str, doc: dict, n_points: int) -> list[str]:
    problems = []
    att = attribution_part(kind, doc)
    means = att["means"]
    if att["n_points"] != n_points:
        problems.append(f"n_points {att['n_points']} != {n_points}")
    if not all(isinstance(v, float) and math.isfinite(v) for v in means + att["stderrs"]):
        problems.append("non-finite attribution")
    gap = math.fsum(means) - (att["accuracy_full"] - att["accuracy_empty"])
    if not abs(gap) <= SUM_RULE_ATOL:
        problems.append(f"sum rule gap {gap:.3e} exceeds {SUM_RULE_ATOL:g}")
    meta = att["metadata"]
    if not (meta["value_evaluations"] > 0 and meta["prediction_rows"] > 0):
        problems.append("output metadata reports no work done")
    if kind == "fairness":
        names = doc["features"]
        sensitive = math.fsum(means[names.index(f)] for f in doc["sensitive"])
        if not abs(sensitive - doc["sensitive_asv"]) <= SUM_RULE_ATOL:
            problems.append(f"sensitive_asv {doc['sensitive_asv']} != sum of its means {sensitive}")
    if kind == "featselect":
        cum = doc["cumulative_asv"]
        if len(cum) != len(means) or not all(math.isfinite(v) for v in cum):
            problems.append("cumulative_asv has the wrong length or non-finite entries")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_reference(kind: str, doc: dict, reference: dict) -> list[str]:
    problems = []
    got = reference_values(kind, doc)
    for key, want in reference.items():
        have = got[key]
        want_list = want if isinstance(want, list) else [want]
        have_list = have if isinstance(have, list) else [have]
        if len(want_list) != len(have_list):
            problems.append(f"{key}: length {len(have_list)} != reference {len(want_list)}")
            continue
        worst = max(abs(h - w) for h, w in zip(have_list, want_list))
        if not worst <= REFERENCE_ATOL:
            problems.append(f"{key}: off the reference by {worst:.3e} (> {REFERENCE_ATOL:g})")
    return problems


def normalized_bytes(path: Path, out_name: str) -> bytes:
    """The output file's bytes with its own echoed path blanked."""
    return path.read_bytes().replace(json.dumps(out_name).encode(), b'"<out>"')
