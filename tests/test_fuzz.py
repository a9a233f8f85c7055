"""Hostile input: the loaders and ``main`` on small generated documents and
arguments.

Only ``LRPairsError`` subclasses may escape a loader, and ``lrpairs
extract``, ``realize``, ``roundtrip`` and ``count`` exit only with 0, 2, 3 or
4.  Each document is a well-formed one (r <= 3 for pairs, r <= 4 for
fillings, degrees and entries <= 4), as it is or with one node replaced by an
arbitrary small JSON value, or removed.  The int flags stay small and the
partition strings have single-digit parts, so every example starts no
unbounded work.
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


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), (rc, err.getvalue())
    return rc


@settings(max_examples=120, deadline=None)
@given(hostile(pairs))
def test_extract_exits_only_with_known_codes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _exit_code(["extract", "--in", str(path)])


realize_docs = st.fixed_dictionaries(
    {"filling": fillings | fillings.map(lambda doc: doc["rows"]), "mu": partitions})


@settings(max_examples=120, deadline=None)
@given(hostile(realize_docs))
def test_realize_exits_only_with_known_codes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_filling.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _exit_code(["realize", "--in", str(path)])


@settings(max_examples=40, deadline=None)
@given(st.integers(-1, 2), st.integers(-1, 3), st.integers(-1, 4),
       st.integers(-1, 3), st.integers(0, 9))
def test_roundtrip_exits_only_with_known_codes(tmp_path_factory, trials, rmax,
                                               pmax, retries, seed):
    # failure artifacts land beside --out, in the test's own directory
    out = tmp_path_factory.getbasetemp() / "fuzz_roundtrip.json"
    _exit_code(["roundtrip", "--trials", str(trials), "--rmax", str(rmax),
                "--pmax", str(pmax), "--retries", str(retries),
                "--seed", str(seed), "--out", str(out)])


# comma strings of small parts, signs, blanks, junk and non-ASCII digits,
# and sometimes more parts than a filling may have rows
partition_strings = st.lists(
    st.integers(-2, 4).map(str) | st.sampled_from(["", " ", "x", "1.5", "1e1",
                                                   "+1", " 2", "\u0663"]),
    max_size=12).map(",".join)


@settings(max_examples=150, deadline=None)
@given(partition_strings, partition_strings, partition_strings)
def test_count_exits_only_with_known_codes(mu, nu, lam):
    _exit_code(["count", mu, nu, lam])
