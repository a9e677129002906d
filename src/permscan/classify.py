"""Permission labels: operation x object classification of host APIs.

The default classifier is a deterministic verb lexicon over method-name
stems, with description keywords as a weaker signal and Modify as the
last-resort fallback.  An optional remote text-model endpoint can be
consulted for low-confidence labels; it is off unless configured.
"""

from __future__ import annotations

import enum
import json
import os
import re
from dataclasses import dataclass, field

from .catalog import ApiSpec, Catalog
from .errors import RemoteUnavailable, ResponseUnparseable


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


@dataclass(frozen=True)
class PermissionLabel:
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
        return PermissionLabel(
            Operation.parse(obj["operation"]), obj["object_kind"], obj["touches_sharing"]
        )


DEFAULT_LEXICON = {
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

DEFAULT_SHARING_MARKERS = frozenset(
    {"editor", "viewer", "owner", "collaborator", "sharing", "commenter"}
)

# stems that mutate the sharing configuration when combined with a marker
_SHARING_MUTATORS = ("add", "remove", "set", "transfer", "revoke", "delete")

CONF_STEM = 1.0
CONF_DESCRIPTION = 0.6
CONF_FALLBACK = 0.25


@dataclass(frozen=True)
class RemoteClassifierEndpoint:
    base_url: str
    token_env: str = "PERMSCAN_CLASSIFIER_TOKEN"
    prompt_template: str = (
        "You are an engineer who would like to utilize the following API.\n"
        "Categorize it as one of: create, view, comment, modify, delete.\n"
        "API: {api_name}\nDescription: {description}\nHierarchy: {hierarchy}\n"
        "Answer with: <operation>, <object>"
    )
    timeout: float = 10.0


@dataclass(frozen=True)
class ClassifierConfig:
    lexicon: dict = field(default_factory=lambda: dict(DEFAULT_LEXICON))
    sharing_markers: frozenset = DEFAULT_SHARING_MARKERS
    remote: RemoteClassifierEndpoint | None = None
    confidence_threshold: float = 0.5


_CAMEL = re.compile(r"[A-Z]?[a-z]+|[A-Z]+(?![a-z])|\d+")


def _tokens(name: str) -> list[str]:
    return [t.lower() for t in _CAMEL.findall(name)]


def _stem_of(token: str, lexicon: dict) -> Operation | None:
    return lexicon.get(token)


def _shareable_classes(catalog: Catalog) -> set:
    """Classes that can carry a sharing configuration: the root app and
    its directly produced resource classes."""
    shareable = {catalog.root}
    for api in catalog.apis.values():
        if api.parent_class == catalog.root and api.returns.is_class:
            shareable.add(api.returns.name)
    return shareable


def classify_api(
    spec: ApiSpec, catalog: Catalog, config: ClassifierConfig | None = None
) -> tuple[PermissionLabel, float]:
    """Label one API.  Always returns a label; confidence signals how."""
    config = config or ClassifierConfig()
    tokens = _tokens(spec.method)
    first = tokens[0] if tokens else ""

    # builder pattern: "newXxxBuilder" has no side effect on the resource
    if first == "new" and spec.returns.is_class and spec.returns.name.endswith("Builder"):
        return PermissionLabel(Operation.VIEW, spec.parent_class), CONF_STEM

    sharing_hit = any(m in spec.method.lower() for m in config.sharing_markers)
    touches_sharing = sharing_hit and spec.parent_class in _shareable_classes(catalog)

    op: Operation | None = _stem_of(first, config.lexicon)
    confidence = CONF_STEM if op is not None else 0.0

    if op is None:
        for word in re.findall(r"[a-zA-Z]+", spec.description.lower()):
            # descriptions use third-person verbs ("Deletes the row")
            hit = _stem_of(word, config.lexicon)
            if hit is None and word.endswith("s"):
                hit = _stem_of(word[:-1], config.lexicon)
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


def _hierarchy_context(spec: ApiSpec, catalog: Catalog) -> str:
    children = catalog.classes.get(spec.parent_class, ())
    return f"{spec.parent_class} contains: {', '.join(children) or '(leaf)'}"


def classify_with_remote(
    spec: ApiSpec, config: ClassifierConfig, catalog: Catalog | None = None
) -> PermissionLabel:
    """Ask the configured endpoint for a label.

    Raises RemoteUnavailable on timeout or HTTP failure and
    ResponseUnparseable when the reply names no operation; callers fall
    back to the lexicon label in both cases.
    """
    if config.remote is None:
        raise RemoteUnavailable("no remote endpoint configured")
    # imported here so that importing permscan does not pay for the HTTP stack
    import urllib.request
    from http.client import HTTPException

    ep = config.remote
    prompt = ep.prompt_template.format(
        api_name=spec.id,
        description=spec.description,
        hierarchy=_hierarchy_context(spec, catalog) if catalog else spec.parent_class,
    )
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(ep.token_env, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = json.dumps({"prompt": prompt}).encode()
    try:
        request = urllib.request.Request(ep.base_url, data=body, headers=headers, method="POST")
        # HTTPError (any 4xx/5xx), URLError and socket timeouts are OSErrors
        with urllib.request.urlopen(request, timeout=ep.timeout) as resp:
            reply = json.load(resp)
    except (OSError, HTTPException, ValueError) as exc:
        raise RemoteUnavailable(str(exc)) from exc
    text = str(reply.get("text", "")) if isinstance(reply, dict) else ""

    match = re.search(r"\b(create|view|comment|modify|delete)\b", text.lower())
    if not match:
        raise ResponseUnparseable(f"cannot parse {text!r}")
    op = Operation.parse(match.group(1))
    sharing = any(m in spec.method.lower() for m in config.sharing_markers)
    return PermissionLabel(op, spec.parent_class, sharing and op != Operation.COMMENT)


def classify_catalog(
    catalog: Catalog, config: ClassifierConfig | None = None
) -> dict:
    """Label every API in the catalog.  Low-confidence labels are escalated
    to the remote endpoint when one is configured; any remote failure keeps
    the lexicon label."""
    config = config or ClassifierConfig()
    labels: dict = {}
    for api_id in sorted(catalog.apis):
        spec = catalog.apis[api_id]
        label, confidence = classify_api(spec, catalog, config)
        if confidence < config.confidence_threshold and config.remote is not None:
            try:
                label = classify_with_remote(spec, config, catalog)
            except (RemoteUnavailable, ResponseUnparseable):
                pass
        labels[api_id] = label
    return labels
