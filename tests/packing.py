"""The tests' one adapter from a full-matrix formula to a metric generator.

`sample_metric` takes a generator that returns packed components in
`pack_map` order.  The tests write their metrics as full symmetric
matrices, the form the formulas are read in, and `packed` turns such a
formula into a generator.
"""
from mollilab.lattice import pack_symmetric


def packed(formula):
    """The generator X -> pack_symmetric(formula(X)), for a `formula` that
    returns symmetric matrices (..., n, n)."""
    return lambda X: pack_symmetric(formula(X))
