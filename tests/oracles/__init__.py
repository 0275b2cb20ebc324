"""Scalar reference implementations that fast paths are checked against.

Each module here keeps the straightforward one-value-at-a-time form of
a routine whose library version was rewritten for speed.  The oracles
are test-only: the equivalence suites compare the library's output to
theirs bit for bit.
"""
