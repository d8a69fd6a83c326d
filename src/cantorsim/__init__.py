"""Exact finite-stage simulation of enumeration constructions over Cantor
space: dyadic arithmetic, antichain coverings, toy prefix-free machines,
depth-bounded trees, and stage-replay constructions with brute-force
oracle checks."""

__version__ = "0.1.0"
