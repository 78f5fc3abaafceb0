"""Exact-arithmetic bookkeeping for critical L-value period identities over CM fields."""
