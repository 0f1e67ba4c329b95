"""Expanding-ring-search cost model and MANET route-discovery simulator."""

__version__ = "0.1.0"
