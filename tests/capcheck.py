"""The three equation tables at the reduction's lowered precision against
the full cap |mu| + |nu| + 1, shared by the generic and acceptance tests."""

from lrpairs.generic import _equation_cap, _equation_failures
from lrpairs.matrix import minor_order_table
from lrpairs.ring import INFINITY


def assert_equation_cap_exact(tab_n, right, left, v, mu, r, cap):
    """Build the tables of U T_U, Q_U U and V at cap and at the equation cap.

    Every entry at most the equation cap is identical, every other one is
    identical or infinite, and each of the three equations passes or fails
    alike at both precisions.  Returns the equation cap and the failure
    strings at the full cap."""
    cap_eq = _equation_cap(tab_n, cap, r)
    for m, kw in ((right, {}), (left, {}), (v, {"comparable_only": True})):
        full = minor_order_table(m, cap=cap, **kw)
        low = minor_order_table(m, cap=cap_eq, **kw)
        assert low.keys() == full.keys()
        for key, want in full.items():
            got = low[key]
            assert got == want or (got == INFINITY and want > cap_eq), \
                (key, got, want, cap_eq)
    at_full = _equation_failures(tab_n, right, left, v, mu, r, cap)
    at_eq = _equation_failures(tab_n, right, left, v, mu, r, cap_eq)
    assert [not s for s in at_eq] == [not s for s in at_full], (at_eq, at_full)
    return cap_eq, at_full
