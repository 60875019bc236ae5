"""Reusable test harnesses.

:mod:`tests.harness.differential` runs named simulation cells and checks
their result digests against the committed golden table;
:mod:`tests.harness.executor_contract` is the cross-backend executor
conformance matrix.
"""

from tests.harness.differential import (  # noqa: F401
    QUICK_MATRIX,
    DifferentialCase,
    check_digest,
    check_result,
    run_case,
)
