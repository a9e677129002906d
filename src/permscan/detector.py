"""Escalation detection over execution records and campaign reporting.

Each successful record is decided again by `simulator.decide`, with no gate
skipped, on what its call observed.  One kind per record, E1 > E3 > E2:
  E1 - the scope gate denies, yet the call succeeded.
  E3 - the role or sharing gate denies, and some user's role changed on a
       resource shared both before and after the case (the record's sharing
       changes); creating or deleting a root resource is not one.
  E2 - the role gate (the installer's role on the target, or an object
       constraint) denies and no sharing changed; confirmed only when the
       record carries non-empty evidence, otherwise potential-only.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .catalog import Catalog
from .errors import MissingLabel
from .executor import OUTCOME_PRUNED, OUTCOME_SUCCESS
from .simulator import Decision, Role, RoleCapabilityMatrix, decide

KIND_E1 = "E1"
KIND_E2 = "E2"
KIND_E3 = "E3"

# an E1 record is noted as also E3 when, past the scope gate, it would be one
_PAST_SCOPE = frozenset({"SkipScopeCheck"})


class Finding(NamedTuple):
    kind: str
    api: str
    role: Role
    grant: frozenset
    evidence: str
    note: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "api": self.api,
            "role": self.role.label,
            "grant": sorted(self.grant),
            "evidence": self.evidence,
            "note": self.note,
        }


class DetectionResult(NamedTuple):
    findings: list
    potential_only: list  # Finding-shaped, unconfirmed


def _sharing_evidence(changes: list) -> str:
    """`resource: user old->new` per change; `none` is no role."""
    label = {None: "none", **{role: role.label for role in Role}}
    return "; ".join(f"{rid}: {user} {label[old]}->{label[new]}" for rid, user, old, new in changes)


def detect_full(
    records: list, labels: dict, matrix: RoleCapabilityMatrix, ground_truth=None
) -> DetectionResult:
    """Findings and potential-only findings of `records`.  `ground_truth` is
    accepted and ignored: each record carries what its call observed."""
    result = DetectionResult([], [])
    for record in records:
        if record.outcome != OUTCOME_SUCCESS:
            continue
        label = labels.get(record.api)
        if label is None:
            raise MissingLabel(f"record {record.case_id}: no label for {record.api}")
        if record.observed is None:  # a case with no step checked nothing
            continue
        decision = decide(record.observed, record.grant, label, matrix)
        if decision is Decision.ALLOW:
            continue
        if decision is Decision.DENY_SCOPE:
            note = "scope bypass"
            if record.sharing_changes and decide(
                record.observed, record.grant, label, matrix, _PAST_SCOPE
            ) is not Decision.ALLOW:
                note += "; also mutated sharing configuration (E3 annotation)"
            result.findings.append(
                Finding(KIND_E1, record.api, record.role, record.grant, record.evidence or "", note)
            )
        elif record.sharing_changes:
            result.findings.append(
                Finding(
                    KIND_E3, record.api, record.role, record.grant,
                    _sharing_evidence(record.sharing_changes),
                    "sharing configuration changed without administrator action",
                )
            )
        elif decision is Decision.DENY_ROLE:
            finding = Finding(
                KIND_E2, record.api, record.role, record.grant,
                record.evidence or "",
                "role-level denial bypassed",
            )
            # without evidence potential-only, as in manual triage of calls that
            # return nothing sensitive
            (result.findings if record.evidence else result.potential_only).append(finding)
    return result


# --- reporting ---------------------------------------------------------------


class Report(NamedTuple):
    per_app: dict  # host app -> {"apis", "tested", "potential", "confirmed"}
    per_kind: dict  # E1/E2/E3 -> distinct api count
    findings: list
    potential_only: list
    exclusions: dict  # {"generated", "excluded", "pruned"} accounting from testgen

    def to_json(self) -> dict:
        return {
            "per_app": self.per_app,
            "per_kind": self.per_kind,
            "findings": [f.to_json() for f in sorted(self.findings, key=lambda f: (f.kind, f.api, f.role))],
            "potential_only": [f.to_json() for f in sorted(self.potential_only, key=lambda f: (f.api, f.role))],
            "exclusions": self.exclusions,
        }

    def to_text(self) -> str:
        header = f"{'Host App':<14}{'# APIs':>8}{'# Tested':>10}{'Potential':>11}{'Confirmed':>11}"
        lines = [header, "-" * len(header)]
        for app, row in sorted(self.per_app.items()):
            lines.append(
                f"{app:<14}{row['apis']:>8}{row['tested']:>10}{row['potential']:>11}{row['confirmed']:>11}"
            )
        lines.append("")
        lines.append(
            "Findings by kind: "
            + ", ".join(f"{k}={self.per_kind.get(k, 0)}" for k in (KIND_E1, KIND_E2, KIND_E3))
        )
        return "\n".join(lines) + "\n"


def build_report(
    detection: DetectionResult,
    records: list,
    catalog: Catalog,
    exclusions: dict | None = None,
) -> Report:
    # APIs outside the catalog are not counted
    apis = catalog.apis.keys()
    tested = {r.api for r in records if r.outcome != OUTCOME_PRUNED} & apis
    confirmed = {f.api for f in detection.findings} & apis
    potential = confirmed | ({f.api for f in detection.potential_only} & apis)
    per_app = {catalog.host_app: {
        "apis": len(apis),
        "tested": len(tested),
        "potential": len(potential),
        "confirmed": len(confirmed),
    }}

    per_kind: dict = {KIND_E1: set(), KIND_E2: set(), KIND_E3: set()}
    for f in detection.findings:
        per_kind[f.kind].add(f.api)
    per_kind = {k: len(v) for k, v in per_kind.items()}

    return Report(
        per_app=per_app,
        per_kind=per_kind,
        findings=list(detection.findings),
        potential_only=list(detection.potential_only),
        exclusions=exclusions or {},
    )


def report_to_json(report: Report) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
