"""Small named example structures used throughout the tests and docs."""

from rectangular.core import PartialArray, make_groupoid

# Constant order-4 table: the one-distribution-center pattern.
C4 = make_groupoid(4, [0] * 16)

# Two pair-disjoint order-4 arrays; M4B is additionally maximal.
M4A = make_groupoid(4, [0, 0, 2, 2,
                        1, 1, 3, 3,
                        0, 0, 2, 2,
                        1, 1, 3, 3])

M4B = make_groupoid(4, [0, 0, 3, 3,
                        1, 1, 2, 2,
                        0, 0, 2, 2,
                        1, 1, 3, 3])

# Order-4 table whose red incidence matrix B satisfies BB = J.
X4 = make_groupoid(4, [0, 0, 1, 1,
                       2, 2, 3, 3,
                       2, 2, 3, 3,
                       0, 0, 1, 1])

# A pair of idempotent order-5 tables that are isotopic but not isomorphic.
T5A = make_groupoid(5, [0, 0, 0, 0, 0,
                        1, 1, 2, 2, 1,
                        1, 1, 2, 2, 1,
                        3, 4, 3, 3, 4,
                        3, 4, 3, 3, 4])

T5B = make_groupoid(5, [0, 0, 0, 0, 0,
                        1, 1, 2, 2, 2,
                        1, 1, 2, 2, 2,
                        3, 3, 4, 3, 4,
                        3, 3, 4, 3, 4])

# Idempotent order-5 table whose quotient by {0,1,2,3}|{4} is not rectangular.
Q5 = make_groupoid(5, [0, 0, 2, 2, 2,
                       1, 1, 3, 3, 1,
                       0, 0, 2, 2, 2,
                       1, 1, 3, 3, 1,
                       0, 0, 3, 3, 4])

# Idempotent order-3 table separating idempotent groupoids from the variety
# generated by the idempotent rectangular ones.
I3 = make_groupoid(3, [0, 2, 2,
                       0, 1, 2,
                       0, 1, 2])

# Partial Latin square with the empty-opposite-corners property that is not
# pair-disjoint.
B3 = PartialArray(3, ((None, 0, 2),
                      (0, None, 1),
                      (2, 1, None)))
