"""Hostile JSON input: the loaders and ``main`` on small generated documents.

Only ``LRPairsError`` subclasses may escape a loader, and ``lrpairs extract``
exits only with 0, 2, 3 or 4.  Each document is a well-formed one (r <= 3,
degrees <= 4), as it is or with one node replaced by an arbitrary small JSON
value, or removed; so every example stays small and starts no unbounded
work.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lrpairs.cli import main
from lrpairs.errors import LRPairsError
from lrpairs.generic import MatrixPair
from lrpairs.matrix import RMatrix
from lrpairs.ring import RingElem
from lrpairs.tableaux import Filling, Partition

KEYS = ("num", "den", "entries", "r", "first", "second", "M", "N", "rows")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats()
    | st.text(alphabet="0123456789/-+.tx ", max_size=6)
    | st.sampled_from(["0", "1/0", "2/4", "07", "-1/3"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=12)


def polys(min_size=0):
    """[coefficient, degree] lists at distinct ascending degrees <= 4."""
    coefficients = st.integers(-3, 3).filter(bool) | st.sampled_from(["1/2", "-3/4"])
    return st.lists(st.tuples(coefficients, st.integers(0, 4)), min_size=min_size,
                    max_size=3, unique_by=lambda term: term[1]).map(
        lambda terms: [[c, d] for c, d in sorted(terms, key=lambda term: term[1])])


rings = st.fixed_dictionaries({"num": polys()}, optional={"den": polys(1)})


def matrices(r):
    return st.fixed_dictionaries(
        {"entries": st.lists(st.lists(rings, min_size=r, max_size=r),
                             min_size=r, max_size=r)},
        optional={"r": st.just(r)})


pairs = st.integers(1, 3).flatmap(
    lambda r: st.fixed_dictionaries({"first": matrices(r), "second": matrices(r)})
    | st.fixed_dictionaries({"M": matrices(r), "N": matrices(r)}))
partitions = st.lists(st.integers(0, 6), max_size=5).map(
    lambda parts: sorted(parts, reverse=True))
fillings = st.integers(0, 4).flatmap(
    lambda r: st.fixed_dictionaries(
        {"rows": st.tuples(*(st.lists(st.integers(0, 4), min_size=j, max_size=j)
                             for j in range(1, r + 1))).map(list)},
        optional={"r": st.just(r)}))


def _nodes(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def hostile(draw, docs):
    """A well-formed document, or one with a single node replaced by an
    arbitrary JSON value or, below the root, removed."""
    doc = draw(docs)
    if draw(st.booleans()):
        return doc
    path = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return draw(json_values)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return doc


@pytest.mark.parametrize("load, docs", [
    (RingElem.from_json, rings),
    (RMatrix.from_json, st.integers(1, 3).flatmap(matrices)),
    (MatrixPair.from_json, pairs),
    (Partition.from_json, partitions),
    (Filling.from_json, fillings),
], ids=["ring", "matrix", "pair", "partition", "filling"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_package_errors(load, docs, data):
    try:
        load(data.draw(hostile(docs)))
    except LRPairsError:
        pass


@settings(max_examples=120, deadline=None)
@given(hostile(pairs))
def test_extract_exits_only_with_known_codes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["extract", "--in", str(path)])
    assert rc in (0, 2, 3, 4), (rc, err.getvalue())
