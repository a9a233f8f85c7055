"""The three equation tables at the reduction's per-pair caps against the
uncapped tables, shared by the generic and acceptance tests."""

from lrpairs.generic import _equation_failures
from lrpairs.matrix import minor_order_table
from lrpairs.ring import INFINITY


def assert_equation_cap_exact(tab_n, right, left, v, mu, r, pair_caps):
    """Build the tables of U T_U, Q_U U and V uncapped and at pair_caps (a
    mapping from pair to precision; the reduction passes N*'s table).

    At the pair caps every entry within its pair's cap is identical to the
    uncapped one, every other one is identical or infinite, and each of the
    three equations passes or fails alike at both precisions.  Returns the
    failure strings uncapped."""
    for m, kw in ((right, {}), (left, {}), (v, {"comparable_only": True})):
        full = minor_order_table(m, **kw)
        low = minor_order_table(m, cap=pair_caps, **kw)
        assert low.keys() == full.keys()
        for key, want in full.items():
            got = low[key]
            assert got == want or (got == INFINITY and want > pair_caps[key]), \
                (key, got, want)
    at_full = _equation_failures(tab_n, right, left, v, mu, r, None)
    at_low = _equation_failures(tab_n, right, left, v, mu, r, pair_caps)
    assert [not s for s in at_low] == [not s for s in at_full], (at_low, at_full)
    return at_full
