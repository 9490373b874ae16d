"""Built-in parameter sets and the bundled reference tables.

The single-component cases and the one dimensional mixtures are fully
specified and carry reference entropy values that the ``reproduce``
command checks cell by cell. The two dimensional mixtures are fully
specified too but their reference values are not desk-reproducible, so
they run in property mode (sandwich and ordering checks). The three
dimensional mixtures are completions of partially specified sources:
missing location/shape coordinates are filled with zeros; they exist only
for property mode and carry no reference values.
"""

from __future__ import annotations

import numpy as np

from .distributions import MixtureParams, SkewTParams

__all__ = [
    "single_case",
    "mixture_d1",
    "MIXTURE_IDS",
    "builtin_mixture",
    "TABLE1_ALPHAS",
    "TABLE1_DOFS",
    "ALPHA_INF_PROXY",
    "REFERENCE_TABLE1_D1",
    "REFERENCE_TABLE1_D2",
    "REFERENCE_TABLE1_D3",
    "REFERENCE_TABLE2_D1",
    "REFERENCE_TABLE3_D1",
    "REFERENCE_LARGE_ALPHA_LIMIT",
    "DEFAULT_TOLERANCE",
]

DEFAULT_TOLERANCE = 0.02

# Renyi orders tabulated for the single-component reference table, plus a
# large-order stand-in for the "alpha to infinity" column.
TABLE1_ALPHAS = (2, 3, 4, 5, 6, 8, 10)
TABLE1_DOFS = (3, 4, 5, 6, 8, 10, 12)
ALPHA_INF_PROXY = 100.0
REFERENCE_LARGE_ALPHA_LIMIT = 1.2311  # quoted limit for the d=1 case


def _comp(mu, scale, delta, dof) -> SkewTParams:
    return SkewTParams(mu=mu, scale=np.atleast_2d(scale), delta=delta, dof=dof)


def single_case(d: int, dof: float) -> SkewTParams:
    """The bundled single-component case of dimension d with the given dof."""
    if d == 1:
        return _comp(0.3, 1.5, 0.3, dof)
    if d == 2:
        return _comp([3.0, 2.0], [[0.7, 0.3], [0.3, 3.0]], [0.3, 2.0], dof)
    if d == 3:
        return _comp([0.0, 0.0, 0.0], np.eye(3), [0.3, 2.0, 0.3], dof)
    raise ValueError(f"no bundled single-component case for d = {d}")


# ---------------------------------------------------------------------------
# Mixture parameter sets: component i of mixture d{d}_m{m} is entry i of the
# d tuple, (mu, scale, delta, dof), with the weights of _WEIGHTS[m].

_COMPONENTS = {
    1: (
        (0.3, 1.5, 0.3, 3.0),
        (4.0, 5.0, 4.0, 3.0),
        (0.6, 3.0, 2.2, 4.0),
        (3.0, 2.0, 1.0, 4.0),
        (2.0, 5.0, 2.1, 5.0),
    ),
    2: (
        ((3.0, 2.0), ((0.7, 0.3), (0.3, 3.0)), (0.16, 0.59), 3.0),
        ((1.0, 5.0), ((0.12, 0.13), (0.13, 3.0)), (2.3, 3.1), 3.0),
        ((3.0, 1.0), ((0.18, 0.6), (0.6, 4.0)), (2.6, 1.0), 4.0),
        ((1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), (0.6, 1.0), 4.0),
        ((1.0, 0.3), ((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0), 5.0),
    ),
    # d = 3: third coordinates of mu/delta beyond those given are zero-filled.
    3: (
        ((3.0, 2.0, 0.0), ((0.7, 0.3, 0.5), (0.3, 3.0, 0.3), (0.5, 0.3, 1.0)), (0.16, 0.59, 0.1), 3.0),
        ((1.0, 5.0, 0.0), ((5.0, 0.3, 2.0), (0.3, 5.0, 1.0), (2.0, 1.0, 3.0)), (2.3, 3.1, 0.0), 3.0),
        ((2.0, 3.0, 0.0), np.eye(3), (2.0, 1.0, 0.0), 4.0),
    ),
}

_WEIGHTS = {
    2: (0.2, 0.8),
    3: (0.2, 0.3, 0.5),
    4: (0.1, 0.2, 0.2, 0.5),
    5: (0.2, 0.2, 0.2, 0.2, 0.2),
}

MIXTURE_IDS = tuple(
    f"d{d}_m{m}" for d, comps in _COMPONENTS.items() for m in range(2, len(comps) + 1)
)


def builtin_mixture(mixture_id: str) -> MixtureParams:
    """Look up a built-in mixture by its id, one of ``MIXTURE_IDS`` (e.g. 'd1_m2')."""
    if mixture_id not in MIXTURE_IDS:
        raise ValueError(f"unknown mixture id {mixture_id!r}")
    d, m = (int(part[1:]) for part in mixture_id.split("_"))
    comps = tuple(_comp(*params) for params in _COMPONENTS[d][:m])
    return MixtureParams(components=comps, weights=np.asarray(_WEIGHTS[m]))


def mixture_d1(m: int) -> MixtureParams:
    """Bundled one dimensional mixture with m components (2..5)."""
    return builtin_mixture(f"d1_m{m}")


# ---------------------------------------------------------------------------
# Reference values. Rows map dof (or (m, alpha)) to the published numbers
# the reproduce command compares against.

# d=1 single component: dof -> (Shannon, R2, R3, R4, R5, R6, R8, R10, Rinf)
REFERENCE_TABLE1_D1 = {
    3: (1.9590, 1.6571, 1.5380, 1.4788, 1.4352, 1.4053, 1.3638, 1.3371, 1.2311),
    4: (1.8678, 1.6033, 1.5010, 1.4438, 1.4043, 1.3749, 1.3378, 1.3127, 1.2101),
    5: (1.8130, 1.5750, 1.4806, 1.4214, 1.3839, 1.3573, 1.3199, 1.2958, 1.1970),
    6: (1.7767, 1.5538, 1.4624, 1.4089, 1.3708, 1.3462, 1.3086, 1.2860, 1.1972),
    8: (1.7314, 1.5361, 1.4459, 1.3951, 1.3557, 1.3310, 1.2933, 1.2726, 1.1970),
    10: (1.7025, 1.5140, 1.4261, 1.3795, 1.3451, 1.3154, 1.2896, 1.2624, 1.1887),
    12: (1.6871, 1.4999, 1.4223, 1.3688, 1.3374, 1.3132, 1.2780, 1.2585, 1.1746),
}

# d=2 and d=3 single-component rows are informational only: the reference
# source is not consistent with any density reading that passes the Monte
# Carlo normalization and entropy oracles.
REFERENCE_TABLE1_D2 = {
    3: (3.5238, 2.9363, 2.6728, 2.5441, 2.4486, 2.3939, 2.3081, 2.2532, 2.0756),
    4: (3.3404, 2.8648, 2.6401, 2.5096, 2.4300, 2.3754, 2.2902, 2.2403, 2.0679),
    5: (3.2363, 2.8158, 2.5956, 2.4832, 2.4069, 2.3548, 2.2781, 2.2304, 2.0521),
    6: (3.1763, 2.7936, 2.5964, 2.4727, 2.4012, 2.3468, 2.2670, 2.2183, 2.0625),
    8: (3.0826, 2.7565, 2.5621, 2.4494, 2.3849, 2.3273, 2.2570, 2.2109, 2.0561),
    10: (3.0367, 2.7228, 2.5526, 2.4386, 2.3702, 2.3263, 2.2508, 2.2128, 2.0541),
    12: (3.0056, 2.7069, 2.5472, 2.4348, 2.3709, 2.3164, 2.2466, 2.1993, 2.0539),
}
REFERENCE_TABLE1_D3 = {
    3: (4.6973, 3.6934, 3.2816, 3.0665, 2.9312, 2.8325, 2.7018, 2.6177, 2.3562),
    4: (4.4806, 3.6356, 3.2594, 3.0701, 2.9340, 2.8508, 2.7266, 2.6461, 2.3886),
    5: (4.3250, 3.5950, 3.2465, 3.0629, 2.9416, 2.8526, 2.7345, 2.6568, 2.4839),
    6: (4.2433, 3.5636, 3.2349, 3.0662, 2.9399, 2.8624, 2.7452, 2.6711, 2.4982),
    8: (4.1010, 3.5157, 3.2376, 3.0577, 2.9473, 2.8719, 2.7564, 2.6875, 2.5103),
    10: (4.0454, 3.5004, 3.2102, 3.0534, 2.9437, 2.8705, 2.7626, 2.6845, 2.5271),
    12: (3.9951, 3.4695, 3.2069, 3.0517, 2.9414, 2.8697, 2.7597, 2.6840, 2.5259),
}

# d=1 mixtures: m -> (lower, upper, approx, claimed half-width)
#
# The printed m = 5 row reads (1.9471, 2.2569, 2.1020, 0.1549). Its upper
# cell is the m = 4 upper copied digit for digit: the paper-convention
# covariance bound reproduces the m = 2, 3 and 4 uppers to four decimals
# and gives 2.3212 at m = 5, as does an independent scipy transcription.
# The upper is corrected to 2.3212, and the approx and half-width, which
# the printed row derives from the copied cell, are re-derived from the
# printed lower and the corrected upper. The printed lower is kept.
REFERENCE_TABLE2_D1 = {
    2: (2.0984, 2.5555, 2.3283, 0.2262),
    3: (1.9818, 2.3523, 2.1671, 0.1852),
    4: (1.9398, 2.2569, 2.0983, 0.1585),
    5: (1.9471, 2.3212, 2.1342, 0.1871),
}

# d=1 mixtures: (m, alpha) -> (lower, upper, approx, claimed half-width)
REFERENCE_TABLE3_D1 = {
    (2, 2): (1.8936, 1.9287, 1.9112, 0.0176),
    (2, 3): (1.7668, 1.8306, 1.7987, 0.0319),
    (2, 4): (1.7092, 1.7727, 1.7410, 0.0317),
    (2, 5): (1.6620, 1.7263, 1.6942, 0.0321),
    (2, 10): (1.5659, 1.6301, 1.5980, 0.0321),
    (2, 15): (1.5269, 1.5943, 1.5606, 0.0337),
    (2, 20): (1.5032, 1.5687, 1.5359, 0.0327),
    (2, 30): (1.4784, 1.5438, 1.5111, 0.0327),
    (3, 2): (1.7719, 1.7775, 1.7747, 0.0028),
    (3, 3): (1.6339, 1.6668, 1.6504, 0.0164),
    (3, 4): (1.5739, 1.6053, 1.5896, 0.0157),
    (3, 5): (1.5285, 1.5637, 1.5461, 0.0176),
    (3, 10): (1.4372, 1.4698, 1.4535, 0.0163),
    (3, 15): (1.4001, 1.4309, 1.4155, 0.0154),
    (3, 20): (1.3815, 1.4115, 1.3965, 0.0150),
    (3, 30): (1.3768, 1.4066, 1.3918, 0.0148),
    (4, 2): (1.7063, 1.7259, 1.7161, 0.0098),
    (4, 3): (1.5721, 1.6173, 1.5947, 0.0226),
    (4, 4): (1.5012, 1.5569, 1.5291, 0.0278),
    (4, 5): (1.4687, 1.5166, 1.4927, 0.0239),
    (4, 10): (1.3676, 1.4231, 1.3954, 0.0278),
    (4, 15): (1.2968, 1.3577, 1.3273, 0.0304),
    (4, 20): (1.2614, 1.3250, 1.2933, 0.0317),
    (4, 30): (1.2526, 1.3168, 1.2848, 0.0320),
}

TABLE3_ALPHAS = (2, 3, 4, 5, 10, 15, 20, 30)
