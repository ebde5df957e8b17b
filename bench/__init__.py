"""The committed benchmark for the reproduction (``python -m bench``).

The benchmark drives the program only from outside: ``python -m repro``
subprocesses, HTTP against ``repro serve``, and, in the traced run,
timed calls to public functions. See ``bench/README.md`` for the
workloads, the metrics and how to compare two commits.

Nothing here imports :mod:`repro` at module level: the untraced run
never loads the program into the benchmark process, and a checkout
without ``src/repro`` is detected before anything starts.
"""
