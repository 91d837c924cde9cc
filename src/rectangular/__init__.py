"""Rectangular structures: construction, verification, interconversion,
classification, and exhaustive census of four equivalent models — pair-
disjoint arrays, rectangular groupoids, unique-path graph pairs, and
0/1-matrix pairs whose product is the all-ones matrix.

Names are imported from the modules that define them, as in ``from
rectangular.core import Groupoid``; importing the package loads no submodule.
"""
