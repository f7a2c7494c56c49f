"""The record rule: results are named tuples, value types holding a collection are not.

Result records (potentials, certificates, geodesics, oracle values, self-test
criteria) are ``typing.NamedTuple`` subclasses, so they are immutable and
unpack like ``SolveResult``.  Measures and plans stay frozen dataclasses, so
``len`` and iteration on them raise instead of seeing a 2- or 3-tuple.
"""

import pytest

from partialot import (
    AugmentedProblem,
    CertificateReport,
    DualPotentials,
    GeodesicPath,
    HalfPlanePair,
    OracleResult,
    new_measure,
    new_plan,
)
from partialot.selftest import CriterionResult

HP = HalfPlanePair()

_FIELDS = {
    AugmentedProblem: ("sources", "sinks", "cost_exact", "cells", "scale"),
    DualPotentials: ("phi", "psi"),
    CertificateReport: (
        "concentrated_on_S",
        "cyclically_monotone",
        "potentials_valid",
        "boundary_shipping",
        "cost_optimal",
        "worst_violation",
    ),
    GeodesicPath: ("plan", "length"),
    OracleResult: ("value", "witness", "exact"),
    CriterionResult: ("number", "name", "passed", "worst", "detail", "seconds"),
}


@pytest.mark.parametrize("record", list(_FIELDS), ids=lambda cls: cls.__name__)
def test_result_records_are_named_tuples(record):
    assert issubclass(record, tuple)
    assert record._fields == _FIELDS[record]


@pytest.mark.parametrize(
    "report",
    [CertificateReport(True, True, True, True, False, 0.5)],
    ids=lambda report: type(report).__name__,
)
def test_reports_cannot_be_mutated(report):
    for field in report._fields:
        with pytest.raises(AttributeError):
            setattr(report, field, None)


@pytest.mark.parametrize(
    "value",
    [new_measure(HP, [((0, 1), 1.0)]), new_plan(HP, [((0, 1), (0, 2), 1.0)], 2)],
    ids=["DiscreteMeasure", "TransportPlan"],
)
def test_measures_and_plans_are_not_sequences(value):
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        iter(value)
