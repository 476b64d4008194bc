"""Exact optimal quantization of the planar product-Cantor measure.

The package constructs, for every n, the family of optimal n-point
codebooks of the self-similar product measure on the Cantor-set square,
evaluates the closed-form quantization errors, and independently
verifies both with a certified distortion engine (exact rational
interval arithmetic over the product cell tree) plus Lloyd iteration
and multistart search.  All arithmetic is exact; floats never appear.

Every other name is importable from its own module: ``words``,
``measure``, ``optimal``, ``engine`` and ``plot``.  The command line,
which owns every text format the program reads, is not imported here:
``from cantorquant import cli`` loads it by name.
"""

from .engine import (
    exact_distortion,
    iter_assignments,
    lloyd,
    lloyd_step,
    multistart_search,
)
from .optimal import (
    Codebook,
    Point,
    codebook_for,
    count_variants,
    optimal_codebook,
    quantization_error,
    spread_indices,
    variant_by_index,
    variant_index,
)
from .plot import render_svg

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "Point",
    "codebook_for",
    "count_variants",
    "exact_distortion",
    "iter_assignments",
    "lloyd",
    "lloyd_step",
    "multistart_search",
    "optimal_codebook",
    "quantization_error",
    "render_svg",
    "spread_indices",
    "variant_by_index",
    "variant_index",
]
