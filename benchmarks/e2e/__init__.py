"""End-to-end benchmark: the Fig. 3 pipeline and the UE-fleet path.

See ``README.md`` in this directory and ``run.py`` for usage.
"""
