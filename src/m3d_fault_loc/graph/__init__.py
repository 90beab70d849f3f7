"""Netlist, timing, and circuit-graph construction."""
