"""Test-support subsystem: fault injection and runtime race detection.

Shipped inside the package (not under ``tests/``) on purpose: fault
injection and lock-order sanitizing are first-class capabilities of the
serving stack, and downstream deployments can reuse the same shims to
rehearse their own failure drills.
"""
