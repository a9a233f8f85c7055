"""The package namespace exports exactly names that exist."""

import types

import lrpairs


def test_every_exported_name_resolves():
    missing = [name for name in lrpairs.__all__ if not hasattr(lrpairs, name)]
    assert missing == []
    assert len(set(lrpairs.__all__)) == len(lrpairs.__all__)


def test_namespace_binds_exactly_the_exported_names():
    """A name dropped from __all__ but still imported into the package
    fails here; the submodules themselves are not counted."""
    bound = {name for name, value in vars(lrpairs).items()
             if not name.startswith("__") and not isinstance(value, types.ModuleType)}
    assert bound | {"__version__"} == set(lrpairs.__all__)


def test_star_import():
    namespace = {}
    exec("from lrpairs import *", namespace)
    assert set(lrpairs.__all__) <= set(namespace)


def test_retired_names_are_gone():
    """The test oracles live in the tests, the row-sum identities among
    them: extraction proves those rather than checks them.  So do the
    single-minor route and the Smith transforms: the package reads minors
    off one table or one determinant, and its one Smith pass directly.
    ``sequence_from_filling`` returns its stages as a plain tuple, a
    diagonal matrix compares equal to ``RMatrix.diagonal`` of its diagonal,
    and an element's order is read off its own ``valuation`` method.
    ``validate_filling`` returns its failure string, the partition walk is
    a test oracle, and every table walks the lattice's sets and up-sets."""
    for name in ("invariant_partition_oracle", "corner_invariant_check",
                 "row_sum_check", "row_sum_identities", "minor",
                 "minor_order", "smith_transforms", "LRSequence", "valuation",
                 "FillingReport", "iter_partitions"):
        assert name not in lrpairs.__all__
        assert not hasattr(lrpairs, name)
    for name in ("LRSequence", "FillingReport", "ConditionReport", "iter_partitions"):
        assert not hasattr(lrpairs.tableaux, name)
    assert not hasattr(lrpairs.ring, "valuation")
    assert not hasattr(lrpairs.RMatrix, "is_diagonal")
    for name in ("comparable_plan", "full_plan"):
        assert name not in lrpairs.matrix._Lattice._fields
