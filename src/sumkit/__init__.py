"""sumkit: exact combinatorics of gluing formulas for curve counts.

Subpackages are organized by layer: ``series`` (exact truncated power
series), ``contacts`` (divisor-contact multisets and pairings), ``gluing``
(relative-count series, convolution, scattering matrix), ``catalog``
(closed-form relative counts of model spaces), the three applications
(``severi``, ``hurwitz``, ``elliptic``), brute-force ``oracles``, and the
``cli`` front end.
"""

from sumkit.series import (
    ContextMismatch,
    CutoffExceeded,
    Series,
    SeriesError,
    VariableContext,
)
from sumkit.contacts import (
    ContactMultiset,
    IntersectionMatrix,
    dual_multiset,
    enumerate_multisets,
    multiset_stats,
)

__version__ = "0.1.0"
