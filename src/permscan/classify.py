"""Permission labels: operation x object classification of host APIs.

Labels come from one deterministic verb lexicon over method-name stems,
with description keywords as a weaker signal and Modify as the
last-resort fallback.  The confidence returned with each label records
which of the three signals decided it.  Only this module reads method
names: `effect_of` says what a call does beyond its label's operation.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .catalog import ApiSpec, Catalog, expect


class Operation(enum.IntEnum):
    """The five operation groups; the int value is the suite-ordering rank."""

    CREATE = 0
    VIEW = 1
    COMMENT = 2
    MODIFY = 3
    DELETE = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @staticmethod
    def parse(text: str) -> "Operation":
        name = text.strip().upper() if isinstance(text, str) else None
        if name not in Operation.__members__:
            raise ValueError(f"unknown operation {text!r}")
        return Operation[name]


# Each member bound once as a module global for the campaign hot path: on
# CPython 3.11 loading `Operation.VIEW` goes through `EnumType`, ~100 ns,
# against a few ns for a global.
CREATE = Operation.CREATE
VIEW = Operation.VIEW
COMMENT = Operation.COMMENT
MODIFY = Operation.MODIFY
DELETE = Operation.DELETE

_OPERATIONS = {op.label: op for op in Operation}


class PermissionLabel(NamedTuple):
    operation: Operation
    object_kind: str
    touches_sharing: bool = False

    def to_json(self) -> dict:
        return {
            "operation": self.operation.label,
            "object_kind": self.object_kind,
            "touches_sharing": self.touches_sharing,
        }

    @staticmethod
    def from_json(obj: dict) -> "PermissionLabel":
        operation = obj["operation"]  # exactly as `to_json` writes it
        if not isinstance(operation, str) or operation not in _OPERATIONS:
            raise ValueError(f"unknown operation {operation!r}")
        return PermissionLabel(
            _OPERATIONS[operation],
            expect(obj["object_kind"], str, "object_kind"),
            expect(obj["touches_sharing"], bool, "touches_sharing"),
        )


LEXICON = {
    # view
    "get": Operation.VIEW, "read": Operation.VIEW, "is": Operation.VIEW,
    "has": Operation.VIEW, "find": Operation.VIEW, "list": Operation.VIEW,
    "open": Operation.VIEW, "wait": Operation.VIEW,
    # create
    "create": Operation.CREATE, "new": Operation.CREATE, "append": Operation.CREATE,
    "insert": Operation.CREATE, "copy": Operation.CREATE, "add": Operation.CREATE,
    # comment
    "comment": Operation.COMMENT, "reply": Operation.COMMENT,
    # modify
    "set": Operation.MODIFY, "edit": Operation.MODIFY, "replace": Operation.MODIFY,
    "move": Operation.MODIFY, "hide": Operation.MODIFY, "unhide": Operation.MODIFY,
    "sort": Operation.MODIFY, "update": Operation.MODIFY, "merge": Operation.MODIFY,
    "group": Operation.MODIFY, "ungroup": Operation.MODIFY,
    # delete
    "delete": Operation.DELETE, "remove": Operation.DELETE,
    "clear": Operation.DELETE, "revoke": Operation.DELETE,
}

SHARING_MARKERS = frozenset(
    {"editor", "viewer", "owner", "collaborator", "sharing", "commenter"}
)
_SHARING_MARKER = re.compile("|".join(sorted(SHARING_MARKERS)))  # any of them, anywhere

# stems that mutate the sharing configuration when combined with a marker
_SHARING_MUTATORS = ("add", "remove", "set", "transfer", "revoke", "delete")

CONF_STEM = 1.0
CONF_DESCRIPTION = 0.6
CONF_FALLBACK = 0.25


_CAMEL = re.compile(r"[A-Z]?[a-z]+|[A-Z]+(?![a-z])|\d+")


def _first_stem(method: str) -> str:
    stem = _CAMEL.search(method)
    return stem.group().lower() if stem else ""


def _shareable_classes(catalog: Catalog) -> set:
    """Classes that can carry a sharing configuration: the root app and
    its directly produced resource classes."""
    shareable = {catalog.root}
    for api in catalog.apis.values():
        if api.parent_class == catalog.root and api.returns.is_class:
            shareable.add(api.returns.name)
    return shareable


def classify_api(
    spec: ApiSpec, catalog: Catalog, shareable: set | None = None
) -> tuple[PermissionLabel, float]:
    """Label one API.  Always returns a label; confidence signals how.
    `shareable` is the catalog's `_shareable_classes`, found here if not given."""
    first = _first_stem(spec.method)

    # builder pattern: "newXxxBuilder" has no side effect on the resource
    if first == "new" and spec.returns.is_class and spec.returns.name.endswith("Builder"):
        return PermissionLabel(Operation.VIEW, spec.parent_class), CONF_STEM

    low = spec.method.lower()
    sharing_hit = _SHARING_MARKER.search(low) is not None
    if sharing_hit and shareable is None:
        shareable = _shareable_classes(catalog)
    touches_sharing = sharing_hit and spec.parent_class in shareable

    op, confidence = LEXICON.get(first), CONF_STEM

    if op is None:
        for word in re.findall(r"[a-zA-Z]+", spec.description.lower()):
            # descriptions use third-person verbs ("Deletes the row")
            hit = LEXICON.get(word)
            if hit is None and word.endswith("s"):
                hit = LEXICON.get(word[:-1])
            if hit is not None:
                op, confidence = hit, CONF_DESCRIPTION
                break
    if op is None:
        op, confidence = Operation.MODIFY, CONF_FALLBACK

    # collaborator mutation is a modification of the sharing state, whatever
    # the verb stem says (addEditor is not a Create, removeViewer not a Delete)
    if touches_sharing and first in _SHARING_MUTATORS:
        op = Operation.MODIFY
    if touches_sharing and op == Operation.COMMENT:
        touches_sharing = False

    return PermissionLabel(op, spec.parent_class, touches_sharing), confidence


def effect_of(method: str, label: PermissionLabel) -> str | None:
    """A sharing label's effect: `share_view`, `share_add:<role>`,
    `share_remove`, `share_transfer_owner`, or `share_other`, which changes
    nothing; a MODIFY label's `hide` or `unhide` stem; else None, and the
    label's operation alone decides."""
    if not label.touches_sharing:
        first = _first_stem(method) if label.operation == Operation.MODIFY else None
        return first if first in ("hide", "unhide") else None
    if label.operation == Operation.VIEW:
        return "share_view"
    first, low = _first_stem(method), method.lower()
    if first == "add":
        role = "editor" if "editor" in low else "viewer" if "viewer" in low else "commenter"
        return f"share_add:{role}"
    if first in ("remove", "revoke", "delete"):
        return "share_remove"
    if first in ("set", "transfer") and "owner" in low:
        return "share_transfer_owner"
    return "share_other"


def classify_catalog(catalog: Catalog) -> dict:
    """Label every API in the catalog."""
    apis, shareable = catalog.apis, _shareable_classes(catalog)
    return {api_id: classify_api(apis[api_id], catalog, shareable)[0] for api_id in sorted(apis)}
