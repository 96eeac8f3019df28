"""Bounded per-process memo for the seed-independent parts of a campaign.

scenarios.campaign_plan keeps a whole campaign's noiseless plan: the
calibration, reader and coupling plus one clean sweep per grid point, that
is len(measurand_grid) * n_points float64 values (80 kB for a stock
five-point, 2001-point campaign). It pays off when one process runs
campaigns that differ only in seed, repeats, noise_sigma_db or
min_depth_db, such as a seed or noise sweep; a single simulate run gains
nothing. At most MEMO_SIZE plans are kept, so their memory is bounded by
MEMO_SIZE times the largest plan.

Keys are the repr of the arguments, not the arguments themselves: values
that compare equal but differ (8 and 8.0, 0.0 and -0.0, also nested inside
a DeviceGeometry) get separate entries, where a tuple key would merge them.
Only returned values are stored, so a failing call raises on every call.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

# Entries kept per function; the least recently used one is dropped first.
MEMO_SIZE = 32


def memo(function):
    """Wrap function with a bounded least-recently-used memo. The plain
    function stays reachable as __wrapped__."""
    entries: OrderedDict[str, object] = OrderedDict()
    lock = threading.Lock()

    @functools.wraps(function)
    def memoized(*args, **kwargs):
        key = repr((args, kwargs))
        with lock:
            if key in entries:
                entries.move_to_end(key)
                return entries[key]
        value = function(*args, **kwargs)
        with lock:
            entries[key] = value
            if len(entries) > MEMO_SIZE:
                entries.popitem(last=False)
        return value

    return memoized
