"""Shared helpers for CLI subcommand implementations.

Every ``repro <subsystem> <verb>`` implementation (``repro store ls``,
``repro analytics regress``, ...) reports operator-facing faults the same way:
one ``error: <message>`` line on stderr and a documented non-zero exit code,
never a traceback.  :func:`subcommand_errors` is that one error path, shared
so the wording and exit codes cannot drift between subsystems.

Exit-code conventions (documented in :mod:`repro.api.cli`):

* ``0`` — success;
* ``1`` — the operation ran but found what it was looking for (a failed run,
  a tripped regression gate);
* ``2`` — usage or state errors: bad arguments, corrupt/missing stores,
  missing result files or unknown columns;
* ``3`` — a serve daemon was unreachable or timed out.
"""

from __future__ import annotations

import functools
import sys


def subcommand_errors(*exc_types, exit_code: int = 2):
    """Decorate a ``cmd_*`` function to turn ``exc_types`` into exit codes.

    The wrapped command prints ``error: <message>`` to stderr and returns
    ``exit_code`` instead of propagating; all other exceptions (genuine
    bugs) still traceback.  ``KeyError`` messages are unwrapped (``str`` of
    a KeyError is the repr of its message).
    """
    if not exc_types:
        raise ValueError("subcommand_errors needs at least one exception type")

    def decorate(command):
        @functools.wraps(command)
        def wrapper(*args, **kwargs) -> int:
            try:
                return command(*args, **kwargs)
            except exc_types as exc:
                message = exc.args[0] if (
                    isinstance(exc, KeyError) and exc.args
                ) else str(exc)
                print(f"error: {message}", file=sys.stderr)
                return exit_code

        return wrapper

    return decorate
