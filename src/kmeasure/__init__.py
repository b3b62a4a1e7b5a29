"""Exact q-series arithmetic and partition statistics for identity checking."""
