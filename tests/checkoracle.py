"""The verification battery's checks as plain enumerations: every pair's
minimum over its whole up- or down-set, and every triple I <= H <= J of the
gap inequalities.  ``lrpairs.generic`` takes the same minima and extrema
in one pass over the cover lattice; these bodies are the references its
report strings are compared with."""

from lrpairs.matrix import _between, _comparable_pairs, _lattice, _mu_weights
from lrpairs.ring import INFINITY


def pairs_to_check(r):
    """Every (rows, cols) pair of equal size, including the empty pair, by
    size, then rows, then columns, in lexicographic order."""
    for sets in _lattice(r).sets:
        for i_set in sets:
            for j_set in sets:
                yield i_set, j_set


def equation_first(tab_n, tab_right, r):
    up = _lattice(r).up
    for i_set, j_set in pairs_to_check(r):
        want = tab_n[(i_set, j_set)]
        got = min(tab_right[(s, j_set)] for s in up[i_set])
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def equation_second(tab_n, tab_v, mu, r):
    down = _lattice(r).down
    weight = _mu_weights(mu, r)
    for i_set, j_set in _comparable_pairs(r):
        want = tab_n[(i_set, j_set)]
        w_i = weight[i_set]
        got = min(tab_v[(h, j_set)] + weight[h] - w_i for h in down[i_set])
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def equation_third(tab_n, tab_left, r):
    down = _lattice(r).down
    for i_set, j_set in pairs_to_check(r):
        want = tab_n[(i_set, j_set)]
        got = min(tab_left[(i_set, h)] for h in down[j_set])
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def gap_failures(table, mu, r):
    """(rows, columns) failure strings of ``verify_mu_generic``'s two gap
    checks, from every triple."""
    weight = _mu_weights(mu, r)
    row_fail = ""
    col_fail = ""
    for i_set, j_set in _comparable_pairs(r):
        base = table[(i_set, j_set)]
        w_i = weight[i_set]
        for h in _between(i_set, j_set):
            if not row_fail:
                vh = table[(h, j_set)]
                if not (base <= vh):
                    row_fail = f"I={i_set} H={h} J={j_set}: {base} > {vh}"
                elif base is not INFINITY and \
                        (vh is INFINITY or vh > base + w_i - weight[h]):
                    row_fail = (f"I={i_set} H={h} J={j_set}: gap {vh} - {base} exceeds "
                                f"{w_i - weight[h]}")
            if not col_fail:
                vc = table[(i_set, h)]
                if not (vc >= base):
                    col_fail = f"I={i_set} H={h} J={j_set}: {vc} < {base}"
            if row_fail and col_fail:
                break
    return row_fail, col_fail
