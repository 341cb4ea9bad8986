"""The paper's formalism (§2): SI-schedules, equivalence, 1-copy-SI.

* :mod:`repro.si.schedule` — Definition 1 (SI-schedule) as a checkable
  object: a sequence of begin/commit events over transactions with
  read/writesets.
* :mod:`repro.si.equivalence` — Definition 2 (SI-equivalence of two
  schedules over the same transactions).
* :mod:`repro.si.onecopy` — Definition 3 (1-copy-SI): given the local
  schedule of every replica, decide whether a global SI-schedule exists
  that all of them are equivalent to, and produce it (or a counterexample
  cycle).  Its :class:`OneCopyGraph` also ingests live
  :class:`~repro.storage.engine.Database` histories, for the offline
  audit and the online monitor alike.
"""

from repro.si.equivalence import equivalent
from repro.si.onecopy import OneCopyGraph, OneCopyReport, check_one_copy_si
from repro.si.schedule import Schedule, TxnSpec, Violation

__all__ = [
    "TxnSpec",
    "Schedule",
    "Violation",
    "equivalent",
    "check_one_copy_si",
    "OneCopyReport",
    "OneCopyGraph",
]
