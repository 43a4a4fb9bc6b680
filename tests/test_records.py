"""The record types: immutable, built by position or keyword, compared by
type and fields, and checked on construction."""

import copy
import pickle

import numpy as np
import pytest

from hurstlab.base import EstimatorResult, FitPlan, LogLogFits, WindowPolicy
from hurstlab.errors import InvalidWindow, SeriesError
from hurstlab.montecarlo import (CellReport, MethodStats, ReportMetadata, SimulationCell,
                                 SimulationReport, make_grid)
from hurstlab.record import Record
from hurstlab.regression import RegressionFit
from hurstlab.sampling import ExponentialSpec

SCALES = np.array([2, 4], dtype=np.int64)
POLICY = WindowPolicy(4, "full-N")
CELL = SimulationCell(1.5, 128, 3)
STATS = MethodStats(0.5, 0.01, 2)
METADATA = ReportMetadata(42, "gen", POLICY, "sample", False, "0.1.0", 1.25)

# (type, positional field values, field names): every record type of the package
RECORDS = [
    (RegressionFit, (0.5, 0.1, 0.01), ("slope", "intercept", "residual_rms")),
    (EstimatorResult, ("RSAL", 0.5, RegressionFit(0.5, 0.1, 0.01), SCALES, SCALES, ("W",)),
     ("method", "hurst", "fit", "scales", "statistics", "warnings")),
    (WindowPolicy, (4, "full-N"), ("min_window", "max_window_rule")),
    (LogLogFits, ("DFA", SCALES, SCALES, SCALES, SCALES, SCALES, SCALES),
     ("method", "scales", "statistics", "slope", "intercept", "residual_rms", "hurst")),
    (FitPlan, ((2, 4), SCALES, (1.0, SCALES, 2.0)), ("windows", "scales", "abscissae")),
    (ExponentialSpec, (1.5, 128), ("lam", "length")),
    (SimulationCell, (1.5, 128, 3), ("lam", "length", "iterations")),
    (MethodStats, (0.5, 0.01, 2), ("mean_hurst", "mse", "failure_count")),
    (CellReport, (CELL, {"RSAL": STATS}), ("cell", "methods")),
    (ReportMetadata, (42, "gen", POLICY, "sample", False, "0.1.0", 1.25),
     ("master_seed", "generator", "window_policy", "sd_mode", "vtp_divisors_only",
      "artifact_version", "duration_seconds")),
    (SimulationReport, (METADATA, (CellReport(CELL, {"RSAL": STATS}),)), ("metadata", "cells")),
]
IDS = [kind.__name__ for kind, _, _ in RECORDS]
# the records whose fields are all hashable
HASHABLE = [r for r in RECORDS if r[0] in (RegressionFit, WindowPolicy, ExponentialSpec,
                                           SimulationCell, MethodStats, ReportMetadata)]


@pytest.mark.parametrize("kind, values, fields", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(kind, values, fields):
    record = kind(*values)
    assert record._fields == fields
    assert [getattr(record, name) for name in fields] == list(values)
    assert tuple(kind(**dict(zip(fields, values)))) == tuple(record)
    with pytest.raises(TypeError):
        kind(*values, None)


@pytest.mark.parametrize("kind, values, fields", RECORDS, ids=IDS)
def test_fields_and_new_attributes_cannot_be_set(kind, values, fields):
    record = kind(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.other = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("kind, values, fields", HASHABLE, ids=[r[0].__name__ for r in HASHABLE])
def test_equal_and_hashed_by_type_and_fields(kind, values, fields):
    record, again = kind(*values), kind(*values)
    assert record == again and not record != again
    assert hash(record) == hash(again)
    assert {record: 1}[again] == 1
    # never equal to a plain tuple of its fields, in either order
    assert record != values and values != record
    assert not record == values and not values == record
    assert record != "text" and record is not None
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_records_of_other_types_with_equal_fields_differ():
    assert RegressionFit(0.5, 0.01, 2) != MethodStats(0.5, 0.01, 2)
    assert not RegressionFit(0.5, 0.01, 2) == MethodStats(0.5, 0.01, 2)


def test_one_field_changes_equality():
    assert MethodStats(0.5, 0.01, 2) != MethodStats(0.5, 0.01, 3)
    assert WindowPolicy() != WindowPolicy(3)


def test_defaults():
    assert WindowPolicy() == WindowPolicy(2, "half-N")
    assert EstimatorResult("VTP", 0.5, None, SCALES, SCALES).warnings == ()
    assert ReportMetadata(1, "g", POLICY, "sample", False, "v").duration_seconds == 0.0


def test_repr_names_every_field():
    assert repr(WindowPolicy()) == "WindowPolicy(min_window=2, max_window_rule='half-N')"
    assert repr(SimulationCell(1.5, 128, 3)) == "SimulationCell(lam=1.5, length=128, iterations=3)"
    assert repr(CellReport(CELL, {})) == (
        "CellReport(cell=SimulationCell(lam=1.5, length=128, iterations=3), methods={})")


def test_metadata_equality_ignores_the_duration():
    other = METADATA._replace(duration_seconds=99.0)
    assert other.duration_seconds == 99.0
    assert other == METADATA and not other != METADATA
    assert hash(other) == hash(METADATA)
    assert METADATA._replace(master_seed=43) != METADATA


def test_replace_checks_the_new_record():
    assert POLICY._replace(min_window=8) == WindowPolicy(8, "full-N")
    with pytest.raises(InvalidWindow):
        POLICY._replace(min_window=1)
    with pytest.raises(TypeError):
        POLICY._replace(window=8)


def test_every_record_type_is_listed():
    """RECORDS covers every Record subclass the package defines."""
    assert {kind for kind, _, _ in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("build, error", [
    (lambda: SimulationCell(1.5, 128, 2.5), ValueError),
    (lambda: SimulationCell(1.5, 128, 4.0), ValueError),
    (lambda: SimulationCell(1.5, 128, "3"), ValueError),
    (lambda: SimulationCell(1.5, 128.0, 3), SeriesError),
    (lambda: make_grid([1.5], [128], [2.0]), ValueError),
    (lambda: make_grid([1.5], [128.5], [2]), SeriesError),
    (lambda: ExponentialSpec(1.5, 128.5), SeriesError),
    (lambda: ExponentialSpec(1.5, 128.0), SeriesError),
    (lambda: WindowPolicy(2.5), InvalidWindow),
    (lambda: WindowPolicy(4.0), InvalidWindow),
    (lambda: WindowPolicy("3"), InvalidWindow),
], ids=["iterations-2.5", "iterations-4.0", "iterations-str", "cell-length-128.0",
        "grid-iterations", "grid-size", "spec-length-128.5", "spec-length-128.0",
        "min-window-2.5", "min-window-4.0", "min-window-str"])
def test_integer_fields_reject_non_integers(build, error):
    with pytest.raises(error, match="must be an integer") as raised:
        build()
    assert raised.type is error


def test_integer_fields_store_python_ints():
    cell = SimulationCell(1.5, np.int64(128), np.int32(3))
    policy = WindowPolicy(np.int16(4))
    assert cell == SimulationCell(1.5, 128, 3)
    assert type(cell.length) is int and type(cell.iterations) is int
    assert type(policy.min_window) is int
    assert type(ExponentialSpec(1.5, np.uint16(64)).length) is int
