"""Progress and warning lines on stderr, without ``logging``, whose import
costs every run about 4.5 ms.  ``info`` writes only while ``verbose`` is
set (the CLI's ``-v``), ``warning`` always; under ``-v`` every line reads
``subforge: <message>``, and without it a warning is written bare.
Messages are ``%``-formatted with their arguments."""

import sys

verbose = False


def info(message: str, *args) -> None:
    if verbose:
        warning(message, *args)


def warning(message: str, *args) -> None:
    sys.stderr.write(("subforge: " if verbose else "") + (message % args if args else message) + "\n")
