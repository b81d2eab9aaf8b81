"""The fork context shared by everything that starts worker processes.

Extraction itself runs in the caller (see
:class:`~repro.core.feature_matrix.FeatureExtractor`): the deployed
path gets its parallelism from ``repro-serve``'s forked shard
processes, and a pool inside each shard would only oversubscribe the
cores they already use.
"""

from __future__ import annotations


def get_fork_context():
    """The ``fork`` multiprocessing context (or the platform default
    where fork is unavailable).

    Used by the serve plane's :class:`~repro.serve.ShardSupervisor`:
    forked children inherit the parent's memory copy-on-write, so a
    bootstrapped template service crosses into the shard for free
    instead of being pickled.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()
