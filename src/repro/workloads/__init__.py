"""Workload generation, request driving, and metrics."""
