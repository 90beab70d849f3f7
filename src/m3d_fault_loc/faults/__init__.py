"""Delay-fault injection."""
