"""The three equation tables at the reduction's lowered precision against
the full cap |mu| + |nu| + 1, shared by the generic and acceptance tests."""

from lrpairs.generic import _equation_cap, _equation_failures
from lrpairs.matrix import minor_order_table
from lrpairs.ring import INFINITY


def assert_equation_cap_exact(tab_n, right, left, v, mu, r, cap, row_caps=None):
    """Build the tables of U T_U, Q_U U and V at cap, at the equation cap
    and, when given, at the row caps (a mapping from row set to precision).

    At each lowered precision every entry within its row set's cap is
    identical to the full cap's, every other one is identical or infinite,
    and each of the three equations passes or fails alike at both
    precisions.  Returns the equation cap and the failure strings at the
    full cap."""
    cap_eq = _equation_cap(tab_n, cap, r)
    lowered = [cap_eq] if row_caps is None else [cap_eq, row_caps]
    for m, kw in ((right, {}), (left, {}), (v, {"comparable_only": True})):
        full = minor_order_table(m, cap=cap, **kw)
        for low_cap in lowered:
            row_cap = (lambda rows: low_cap) if isinstance(low_cap, int) \
                else low_cap.__getitem__
            low = minor_order_table(m, cap=low_cap, **kw)
            assert low.keys() == full.keys()
            for key, want in full.items():
                got = low[key]
                assert got == want or (got == INFINITY and want > row_cap(key[0])), \
                    (key, got, want, low_cap)
    at_full = _equation_failures(tab_n, right, left, v, mu, r, cap)
    for low_cap in lowered:
        at_low = _equation_failures(tab_n, right, left, v, mu, r, low_cap)
        assert [not s for s in at_low] == [not s for s in at_full], (at_low, at_full)
    return cap_eq, at_full
