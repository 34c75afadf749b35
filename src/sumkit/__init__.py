"""sumkit: exact combinatorics of gluing formulas for curve counts.

Subpackages are organized by layer: ``series`` (exact truncated power
series), ``contacts`` (divisor-contact multisets and pairings), ``gluing``
(relative-count series, convolution, scattering matrix), ``catalog``
(closed-form relative counts of model spaces), the three applications
(``severi``, ``hurwitz``, ``elliptic``) with the Severi key helpers in
``profiles``, brute-force ``oracles``, and the ``cli`` front end.

The package root re-exports nothing, so ``import sumkit`` runs no layer:
import the layer you use, as in ``from sumkit.series import Series``.
"""

__version__ = "0.1.0"
