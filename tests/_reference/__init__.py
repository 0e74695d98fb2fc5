"""Superseded implementations kept as differential oracles.

Nothing under ``src/`` imports from here; test modules import these as
``from _reference.<module> import ...`` (pytest puts ``tests/`` on
``sys.path``).
"""
