"""Layered end-to-end campaign benchmark (see ``README.md`` in this directory)."""
