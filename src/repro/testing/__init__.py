"""Test-support machinery shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
used by the chaos suite (``tests/chaos``): a seeded fault
plan, carried in the ``REPRO_FAULTS`` environment variable, that worker
processes and server loops consult at well-defined *sites* (task execution,
outgoing frames).  It lives inside the package — not under ``tests/`` — so
spawned worker processes and ``repro serve`` subprocesses can import it
without any test scaffolding on their path.
"""

from repro.testing import faults

__all__ = ["faults"]
