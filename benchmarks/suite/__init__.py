"""The repository's performance benchmark, described in ``README.md``.

``run.py`` runs one workload and prints its metrics, ``compare.py`` judges
two sets of runs against each other, ``workloads.py`` holds the five
workloads and ``tracer.py`` / ``instrument.py`` the per-layer tracing.
"""
