"""Escalation detection over execution records and campaign reporting.

Rules (one kind per record, precedence E1 > E3 > E2):
  E1 - the grant did not cover the operation, yet the call succeeded.
  E3 - under a non-owner installer, some user's role changed on a resource
       shared both before and after the case (the record's sharing changes);
       creating or deleting a root resource is not a sharing change.
  E2 - scope was fine but the installer's role (or an object constraint)
       forbids the operation; confirmed only when the record carries
       non-empty evidence, otherwise kept as potential-only for triage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .catalog import Catalog
from .classify import PermissionLabel
from .errors import MissingLabel, NotFound
from .executor import OUTCOME_PRUNED, OUTCOME_SUCCESS, ExecutionRecord
from .simulator import (
    Decision,
    Role,
    RoleCapabilityMatrix,
    Subject,
    WorkspaceState,
    check_access,
    scope_covers,
)

KIND_E1 = "E1"
KIND_E2 = "E2"
KIND_E3 = "E3"


@dataclass(frozen=True)
class Finding:
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


@dataclass
class DetectionResult:
    findings: list = field(default_factory=list)
    potential_only: list = field(default_factory=list)  # Finding-shaped, unconfirmed


def _fault_free_decision(
    ground_truth: WorkspaceState, record: ExecutionRecord, label: PermissionLabel
) -> Decision | None:
    """Re-evaluate the record against the fault-free reference model.

    Returns None when the touched object no longer resolves in the fresh
    template (e.g. it was created during the session)."""
    if record.target_object is None:
        return None
    try:
        target = ground_truth.node(record.target_object)
    except NotFound:
        return None
    produced = None
    if record.produced_object and record.produced_object != record.target_object:
        try:
            produced = ground_truth.node(record.produced_object)
        except NotFound:
            produced = None
    subject = Subject(record.installer, record.grant)
    return check_access(ground_truth, subject, label, target, produced)


def _sharing_evidence(changes: list) -> str:
    """`resource: user old->new` per change; `none` is no role."""
    label = {None: "none", **{role: role.label for role in Role}}
    return "; ".join(f"{rid}: {user} {label[old]}->{label[new]}" for rid, user, old, new in changes)


def detect_full(
    records: list,
    labels: dict,
    matrix: RoleCapabilityMatrix,
    ground_truth: WorkspaceState | None = None,
) -> DetectionResult:
    result = DetectionResult()
    for record in records:
        if record.outcome != OUTCOME_SUCCESS:
            continue
        label = labels.get(record.api)
        if label is None:
            raise MissingLabel(f"record {record.case_id}: no label for {record.api}")

        sharing_mutated = bool(record.sharing_changes) and record.role != Role.OWNER

        if not scope_covers(record.grant, label.operation):
            note = "scope bypass"
            if sharing_mutated:
                note += "; also mutated sharing configuration (E3 annotation)"
            result.findings.append(
                Finding(KIND_E1, record.api, record.role, record.grant, record.evidence or "", note)
            )
            continue

        if sharing_mutated:
            result.findings.append(
                Finding(
                    KIND_E3, record.api, record.role, record.grant,
                    _sharing_evidence(record.sharing_changes),
                    "sharing configuration changed without administrator action",
                )
            )
            continue

        denied = False
        if ground_truth is not None:
            decision = _fault_free_decision(ground_truth, record, label)
            denied = decision == Decision.DENY_ROLE
        if not denied:
            denied = not matrix.allows(record.role, label.operation, label.object_kind)
        if denied:
            finding = Finding(
                KIND_E2, record.api, record.role, record.grant,
                record.evidence or "",
                "role-level denial bypassed",
            )
            if record.evidence:
                result.findings.append(finding)
            else:
                # mirrors manual triage of calls that return nothing sensitive
                result.potential_only.append(finding)
    return result


def detect(
    records: list,
    labels: dict,
    matrix: RoleCapabilityMatrix,
    ground_truth: WorkspaceState | None = None,
) -> list:
    """Confirmed findings only; see detect_full for the potential-only list."""
    return detect_full(records, labels, matrix, ground_truth).findings


# --- reporting ---------------------------------------------------------------


@dataclass
class Report:
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
