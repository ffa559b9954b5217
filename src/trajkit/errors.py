"""The errors the command line reports as one ``trajkit: error:`` line.

They live apart from the modules that raise them (``store``, ``evaluate``,
``gateway``) so that catching them loads no engine module.
"""


class CommandError(Exception):
    """An error the command line reports as one line."""


class InputError(CommandError):
    """An input named on the command line cannot be used; reported in one line."""


class CorruptRecordsError(CommandError, ValueError):
    """Raised when a run's records file has a bad line before valid records."""


class ConfigMismatchError(CommandError, ValueError):
    """Raised when a run dir is reopened under a configuration other than its own."""


class EmptyReportError(CommandError, ValueError):
    """Raised when aggregation is asked to summarize zero records."""


class WorkerDiedError(CommandError, RuntimeError):
    """Raised when a worker process of ``map_in_order`` dies before its call returns."""


class EndpointUnavailableError(CommandError, RuntimeError):
    """The endpoint gave no usable reply: all retries were exhausted, or it
    answered in a way no retry mends (a status not retried, or a 200 reply
    without exactly ``n`` completions)."""


class UnresolvableObservationError(CommandError, FileNotFoundError):
    """A step's screenshot reference cannot be resolved; the one arg is its path."""

    def __str__(self) -> str:
        return f"screenshot not found: {self.args[0]}"
