"""Fault-localization model."""
