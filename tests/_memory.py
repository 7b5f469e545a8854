"""Peak memory of one call, as tracemalloc counts it.

numpy reports its array buffers to tracemalloc, so the peak covers every
array the call allocates, temporaries included; the call's inputs, allocated
before it starts, are not counted.
"""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes it held above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start
