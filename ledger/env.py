"""Where the benchmark finds the program, and the environment its
children run in.  ``ledger/`` stands outside ``src/repro``: it locates
``src/`` relative to this file, so the command runs from any working
directory with no ``PYTHONPATH``.
"""

import os
import sys

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(LEDGER, "out")


def require_program():
    """Exit 2 when the program is not there: a directory holding only
    the benchmark has nothing to measure."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("ledger: no program at %s\n"
                         % os.path.join(SRC, "repro"))
        raise SystemExit(2)


def add_src():
    """Make ``repro`` importable."""
    require_program()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env():
    """Environment of every child process.

    Bytecode is cached under ``ledger/out`` whatever the caller's
    ``PYTHONDONTWRITEBYTECODE`` says, so ``setup_s`` always measures a
    warm-bytecode start; a fixed hash seed keeps dict and set layouts,
    and with them the wall clock, the same from child to child.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env
