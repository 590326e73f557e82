"""The repo's benchmark: six workloads measured from outside the program.

See ``README.md`` in this directory; the entry point is ``run.py``.
"""
