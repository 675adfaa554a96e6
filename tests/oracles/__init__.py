"""Test oracles: independent implementations the suite checks the
library against.  Nothing under ``src/`` imports them.

* :mod:`tests.oracles.validator` replays a schedule trace and reports
  EDF priority and work-conservation violations.
* :mod:`tests.oracles.qpa` is Quick Processor-demand Analysis, the
  cross-check of :func:`repro.core.dbf.processor_demand_test`.
"""
