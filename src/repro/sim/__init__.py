"""Discrete-event simulation substrate (virtual time, processes, resources)."""
