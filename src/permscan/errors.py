"""Exception hierarchy shared across the package."""


class PermscanError(Exception):
    """Base class for all errors raised by permscan."""


class UsageError(PermscanError):
    """The command line does not fit the parser: an unknown flag, a missing
    required one or no subcommand."""


# --- catalog ---------------------------------------------------------------

class MalformedFile(PermscanError):
    """The input file is not parseable JSON."""


class SchemaViolation(PermscanError):
    """The catalog (or another structured input) violates its schema."""


class DuplicateApi(SchemaViolation):
    """Two API specs share the same id."""


# --- dependency graph ------------------------------------------------------

class UnresolvableReturn(PermscanError):
    """An API returns a class that is neither internal nor declared external."""


class NoProducer(PermscanError):
    """No call chain from the root produces the requested class."""


# --- test generation -------------------------------------------------------

class UnresolvableParameter(PermscanError):
    """A parameter cannot be supplied by any strategy (enum / external class)."""

    def __init__(self, api_id: str, param: str, reason: str = ""):
        self.api_id = api_id
        self.param = param
        super().__init__(f"{api_id}: parameter '{param}' unresolvable {reason}".rstrip())


class CyclicDependency(PermscanError):
    """The depends_on links of a suite contain a cycle."""


# --- workspace simulator ---------------------------------------------------

class UnknownKind(PermscanError):
    """A template names an object kind absent from the catalog."""


class DuplicateResourceId(PermscanError):
    """A template declares the same resource id twice."""


class PatternMatchesNothing(PermscanError):
    """A fault pattern matches no API in the catalog."""


class NotFound(PermscanError):
    """A resource or object id does not exist in the workspace state."""


# --- executor / detector ---------------------------------------------------

class BackendUnavailable(PermscanError):
    """The execution backend cannot accept invocations."""


class MissingLabel(PermscanError):
    """A record references an API without a permission label."""
