"""The scalar test oracle of the cache, service and joint kinds.

:func:`reference` runs the paper's two-stage scheme one seed, one RSU and
one request at a time (:mod:`oracle.loop`) over a per-RSU object model
(:mod:`oracle.objects`).  It lives with the tests, not in ``repro``: the
package keeps one execution path, and the differential and equivalence
suites compare every entry point of that path against this loop.
"""

from oracle.loop import reference

__all__ = ["reference"]
