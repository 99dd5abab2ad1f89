"""The measurement spine: seven pinned pub/sub workloads, the end-to-end
metrics every later change is judged by, and a per-layer budget.

Entry points: ``spine/run.py`` (one run, or all workloads with repeats)
and ``python -m spine.compare`` (two result files side by side).  See
``spine/README.md``.
"""
