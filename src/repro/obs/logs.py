"""The ``repro`` stdlib-``logging`` hierarchy and its CLI flags.

Every module logs through a child of the single ``repro`` logger
(``repro.campaign``, ``repro.report``, ``repro.cli`` …).  As a
library the hierarchy stays silent — no handler is attached at import
time, so embedders keep full control.  The command-line entry points
call :func:`configure_logging` (usually via :func:`add_logging_flags` +
:func:`configure_from_args`), which attaches one stderr handler:

* default — INFO: per-point campaign progress, report artifact lines;
* ``-v`` / ``--verbose`` — DEBUG: cache decisions, campaign expansion;
* ``-q`` / ``--quiet`` — WARNING and up only.

Progress chatter therefore lands on **stderr** while the greppable
result summaries stay on stdout, so piping a campaign run into a file
captures data, not progress bars.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import IO, Optional

__all__ = [
    "add_logging_flags",
    "configure_from_args",
    "configure_logging",
    "get_logger",
]

ROOT_LOGGER_NAME = "repro"

_handler: Optional[logging.Handler] = None


def get_logger(name: str = "") -> logging.Logger:
    """The ``repro`` logger, or the ``repro.<name>`` child."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + ".") or name == ROOT_LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure_logging(verbosity: int = 0, stream: Optional[IO[str]] = None) -> logging.Logger:
    """Attach (or retune) the CLI handler on the ``repro`` logger.

    ``verbosity`` counts ``--verbose`` minus ``--quiet``: negative is
    WARNING, zero INFO, positive DEBUG.  Idempotent — calling again
    replaces the previous handler instead of stacking duplicates.
    """
    global _handler
    logger = get_logger()
    if _handler is not None:
        logger.removeHandler(_handler)
    _handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    _handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(_handler)
    if verbosity < 0:
        logger.setLevel(logging.WARNING)
    elif verbosity == 0:
        logger.setLevel(logging.INFO)
    else:
        logger.setLevel(logging.DEBUG)
    logger.propagate = False
    return logger


def add_logging_flags(parser: argparse.ArgumentParser) -> None:
    """Add the ``-v/--verbose`` and ``-q/--quiet`` counting flags."""
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more progress detail on stderr (repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="suppress progress output (warnings still shown)",
    )


def configure_from_args(args: argparse.Namespace) -> logging.Logger:
    """Configure logging from the flags added by :func:`add_logging_flags`."""
    verbosity = getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    return configure_logging(verbosity)
